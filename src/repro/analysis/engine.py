"""AST-walking lint engine enforcing the reproduction's standing contracts.

The determinism, dtype and fan-out guarantees this repository rests on
(bit-identical serial/process execution, float64 defense geometry
over float32 payloads, seeded-``Generator``-only randomness, picklable
module-level fan-out functions) are invariants of the *source*, not of any
single test run — a stray ``np.random.shuffle`` or a float32 accumulation
in ``defenses/`` breaks them silently and surfaces rounds later as a flaky
cross-backend mismatch.  This engine checks those contracts statically:

* :class:`Rule` subclasses (one module per rule family, see
  ``repro.analysis.rules_*``) inspect one parsed file at a time through a
  :class:`FileContext` that pre-indexes AST nodes by type, links parents,
  and resolves import aliases to canonical dotted names;
* :class:`ProgramRule` subclasses (``repro.analysis.rules_wholeprogram``)
  see every file at once through a :class:`ProgramContext` — the project
  symbol table, call graph (:mod:`repro.analysis.callgraph`) and
  fixpoint-propagated per-function summaries
  (:mod:`repro.analysis.summaries`) — enabled by
  ``lint_paths(..., whole_program=True)`` / ``repro lint --whole-program``;
* diagnostics render as ``file:line:col RULE-ID message``;
* ``# repro: allow[RULE-ID] <justification>`` pragmas suppress a finding on
  the same line (or from a comment-only line immediately above, reaching
  through any decorator list onto the decorated ``def``);
* a JSON :class:`Baseline` grandfathers known findings so the linter can be
  adopted on a tree that is not yet clean without losing its gate on *new*
  violations.

The engine is deliberately dependency-free (stdlib ``ast`` only) so
``repro lint`` runs in any environment that can import the package.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .callgraph import CallGraph, ProjectIndex
    from .summaries import FunctionSummary

__all__ = [
    "Baseline",
    "Diagnostic",
    "FileContext",
    "LintReport",
    "ProgramContext",
    "ProgramRule",
    "Rule",
    "SCIENCE_PACKAGES",
    "default_program_rules",
    "default_rules",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
]

PathLike = Union[str, Path]

#: Packages whose values are science (they feed accuracies, ASR, selection
#: decisions, cache keys).  Rules that police nondeterminism *sources*
#: (wall clock, OS entropy) restrict themselves to these.
SCIENCE_PACKAGES = (
    "repro.fl",
    "repro.defenses",
    "repro.attacks",
    "repro.nn",
    "repro.data",
    "repro.models",
)

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*\s,-]+)\]")

#: Rules whose findings a pragma naming the superseded per-file rule also
#: suppresses: DT101 re-checks DT001's sites interprocedurally, so an
#: existing ``# repro: allow[DT001]`` justification keeps covering the same
#: accumulation in whole-program mode without rewriting every pragma.
_SUPPRESSION_ALIASES: Dict[str, Tuple[str, ...]] = {"DT101": ("DT001",)}

#: Per-file rules replaced by an interprocedural family in whole-program
#: mode (DT101's tracer sees through helper calls, so it strictly refines
#: DT001; running both would double-report every finding).
SUPERSEDED_IN_WHOLE_PROGRAM = frozenset({"DT001"})


def _bracket_delta(text: str) -> int:
    """Net open-bracket count of a source line (comment tail stripped)."""
    code = text.split("#", 1)[0]
    return sum(code.count(ch) for ch in "([{") - sum(code.count(ch) for ch in ")]}")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: location, rule and message.

    ``line`` and ``col`` are 1-based (editor convention); the rendered form
    is the contract the CI job and the fixture tests assert on.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"

    @property
    def fingerprint(self) -> str:
        """Baseline identity: location-free so line drift does not churn it."""
        return f"{self.path}::{self.rule_id}::{self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of ``path``, when one can be derived.

    Files under a ``src`` directory map to their import path from there
    (``src/repro/fl/types.py`` -> ``repro.fl.types``); files under a
    top-level ``tests`` directory map to ``tests.<name>``.  Anything else gets
    ``None`` and module-scoped checks are skipped for it.
    """
    parts = path.parts
    for anchor in ("src", "tests"):
        if anchor in parts:
            index = parts.index(anchor)
            tail = parts[index:] if anchor == "tests" else parts[index + 1 :]
            if not tail or not tail[-1].endswith(".py"):
                return None
            pieces = list(tail[:-1])
            stem = tail[-1][: -len(".py")]
            if stem != "__init__":
                pieces.append(stem)
            return ".".join(pieces) if pieces else None
    return None


class FileContext:
    """Everything the rules need to know about one parsed file.

    The tree is walked exactly once: nodes are indexed by type for
    per-rule dispatch (:meth:`nodes`), every node is linked to its parent
    (:meth:`parent`), and module-level import aliases are resolved so rules
    match canonical dotted names (``np.random.seed`` and
    ``from numpy.random import seed`` both resolve to
    ``numpy.random.seed``, see :meth:`qualname`).
    """

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.module = module_name_for(path)
        self.is_package = path.name == "__init__.py"
        self.tree = ast.parse(source, filename=str(path))
        self._index: Dict[Type[ast.AST], List[ast.AST]] = {}
        self._parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            self._index.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.aliases = self._collect_aliases()
        self._allow = self._collect_pragmas()

    # -- structure -----------------------------------------------------
    def nodes(self, *types: Type[ast.AST]) -> List[ast.AST]:
        """All nodes of the given types, in tree (source) order."""
        found: List[ast.AST] = []
        for node_type in types:
            found.extend(self._index.get(node_type, []))
        if len(types) > 1:
            found.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        return found

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def in_science_package(self) -> bool:
        module = self.module or ""
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in SCIENCE_PACKAGES
        )

    # -- names ---------------------------------------------------------
    def _collect_aliases(self) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in self.nodes(ast.Import):
            for alias in node.names:  # type: ignore[attr-defined]
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        for node in self.nodes(ast.ImportFrom):
            base = self._resolve_import_base(node)
            if base is None:
                continue
            for alias in node.names:  # type: ignore[attr-defined]
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        # Canonicalize the numpy alias so rules can match "numpy.*".
        for short, full in list(aliases.items()):
            if full == "np":
                aliases[short] = "numpy"
        return aliases

    def _resolve_import_base(self, node: ast.AST) -> Optional[str]:
        module = getattr(node, "module", None)
        level = getattr(node, "level", 0)
        if not level:
            return module if module is None else str(module)
        if self.module is None:
            # Relative import in an unmapped file: best effort.
            return module if module is None else str(module)
        parts = self.module.split(".")
        # In a package ``__init__`` the module name *is* the package, so a
        # level-1 import resolves against the module itself; in a plain
        # module it resolves against the containing package.
        keep = len(parts) - level + (1 if self.is_package else 0)
        base_parts = parts[: max(keep, 0)]
        if module:
            base_parts.append(str(module))
        return ".".join(base_parts) if base_parts else (None if module is None else str(module))

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a ``Name``/``Attribute`` chain, import-resolved.

        ``np.random.seed`` -> ``numpy.random.seed`` when ``np`` was imported
        as numpy; non-name expressions (calls, subscripts) return ``None``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    # -- pragmas -------------------------------------------------------
    def _collect_pragmas(self) -> Dict[int, Set[str]]:
        allow: Dict[int, Set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            allow.setdefault(number, set()).update(ids)
            # A comment-only pragma line covers the comment block it starts
            # and the first code line below it; when that code line opens a
            # decorator list, coverage extends through every decorator
            # (including multi-line decorator calls) onto the decorated
            # ``def`` line itself, which is where def-anchored findings and
            # default-argument expressions live.
            if text.lstrip().startswith("#"):
                follower = number + 1
                while (
                    follower <= len(self.lines)
                    and self.lines[follower - 1].lstrip().startswith("#")
                ):
                    allow.setdefault(follower, set()).update(ids)
                    follower += 1
                depth = 0
                while follower <= len(self.lines):
                    line = self.lines[follower - 1]
                    if depth <= 0 and not line.lstrip().startswith("@"):
                        break
                    allow.setdefault(follower, set()).update(ids)
                    depth += _bracket_delta(line)
                    follower += 1
                allow.setdefault(follower, set()).update(ids)
        return allow

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        ids = self._allow.get(diagnostic.line)
        if not ids:
            return False
        accepted = {diagnostic.rule_id, "*"}
        accepted.update(_SUPPRESSION_ALIASES.get(diagnostic.rule_id, ()))
        return bool(ids & accepted)

    # -- construction helpers ------------------------------------------
    def diagnostic(self, node: ast.AST, rule_id: str, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """Base class of one lint rule.

    Subclasses set :attr:`rule_id` (stable, referenced by pragmas and the
    baseline), :attr:`contract` (the one-line invariant the rule encodes,
    surfaced by ``repro lint --list-rules`` and the README) and implement
    :meth:`check`.
    """

    rule_id: str = ""
    contract: str = ""

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError


class ProgramRule:
    """Base class of one whole-program (interprocedural) lint rule.

    Unlike :class:`Rule`, a program rule sees every linted file at once
    through a :class:`ProgramContext` and may anchor findings in any of
    them; ``# repro: allow[ID]`` pragmas in the owning file still apply
    (the whole-program runner routes each diagnostic back through its
    :class:`FileContext` for suppression).
    """

    rule_id: str = ""
    contract: str = ""

    def check_program(self, program: "ProgramContext") -> Iterable[Diagnostic]:
        raise NotImplementedError


class ProgramContext:
    """Everything the whole-program rules need: all files, graph, summaries.

    Built once per ``lint_paths(..., whole_program=True)`` run from the
    already-parsed :class:`FileContext` objects: the project symbol table
    and call graph come from :mod:`repro.analysis.callgraph`, the
    fixpoint-propagated per-function facts from
    :mod:`repro.analysis.summaries`.
    """

    def __init__(
        self,
        contexts: Sequence[FileContext],
        index: "ProjectIndex",
        graph: "CallGraph",
        summaries: Dict[str, "FunctionSummary"],
    ) -> None:
        self.contexts: List[FileContext] = list(contexts)
        self.index = index
        self.graph = graph
        self.summaries = summaries
        self._by_display: Dict[str, FileContext] = {
            ctx.display_path: ctx for ctx in self.contexts
        }

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProgramContext":
        from .callgraph import CallGraph, ProjectIndex
        from .summaries import summarize_program

        index = ProjectIndex(contexts)
        graph = CallGraph(index)
        summaries = summarize_program(index, graph)
        return cls(contexts, index, graph, summaries)

    def context_for(self, display_path: str) -> Optional[FileContext]:
        return self._by_display.get(display_path)


class Baseline:
    """Grandfathered findings, stored as fingerprint -> count.

    Filtering consumes up to ``count`` findings per fingerprint (earliest
    lines first), so fixing one of N identical grandfathered violations in a
    file keeps the other N-1 suppressed while any *new* copy fails the
    lint.  An empty/missing baseline suppresses nothing.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: PathLike) -> "Baseline":
        try:
            payload = json.loads(Path(path).read_text())
        except FileNotFoundError:
            return cls()
        findings = payload.get("findings", {}) if isinstance(payload, dict) else {}
        return cls({str(key): int(value) for key, value in findings.items()})

    @classmethod
    def from_diagnostics(cls, diagnostics: Iterable[Diagnostic]) -> "Baseline":
        counts: Dict[str, int] = {}
        for diagnostic in diagnostics:
            counts[diagnostic.fingerprint] = counts.get(diagnostic.fingerprint, 0) + 1
        return cls(counts)

    def save(self, path: PathLike) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": 1,
            "findings": {key: self.counts[key] for key in sorted(self.counts)},
        }
        target.write_text(json.dumps(payload, indent=2) + "\n")
        return target

    def filter(
        self, diagnostics: Sequence[Diagnostic]
    ) -> Tuple[List[Diagnostic], int]:
        """Split into (new findings, number of baselined findings)."""
        remaining = dict(self.counts)
        fresh: List[Diagnostic] = []
        suppressed = 0
        for diagnostic in diagnostics:
            if remaining.get(diagnostic.fingerprint, 0) > 0:
                remaining[diagnostic.fingerprint] -= 1
                suppressed += 1
            else:
                fresh.append(diagnostic)
        return fresh, suppressed


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: List[Diagnostic]
    files_checked: int
    suppressed_pragma: int = 0
    suppressed_baseline: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def render_text(self) -> str:
        lines = [diagnostic.render() for diagnostic in self.diagnostics]
        summary = (
            f"{len(self.diagnostics)} finding(s) in {self.files_checked} file(s)"
            f" ({self.suppressed_pragma} pragma-suppressed,"
            f" {self.suppressed_baseline} baselined)"
        )
        return "\n".join(lines + [summary])

    def to_dict(self) -> Dict[str, object]:
        return {
            "findings": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "files_checked": self.files_checked,
            "suppressed_pragma": self.suppressed_pragma,
            "suppressed_baseline": self.suppressed_baseline,
            "ok": self.ok,
        }


def default_rules() -> List[Rule]:
    """Instantiate every shipped rule, in stable rule-id order."""
    from . import (
        rules_dtype,
        rules_ordering,
        rules_rng,
        rules_shm,
        rules_trace,
    )

    rules: List[Rule] = []
    for module in (
        rules_rng,
        rules_dtype,
        rules_shm,
        rules_ordering,
        rules_trace,
    ):
        rules.extend(rule_cls() for rule_cls in module.RULES)
    rules.sort(key=lambda rule: rule.rule_id)
    return rules


def default_program_rules() -> List[ProgramRule]:
    """Instantiate every shipped whole-program rule, in stable id order."""
    from . import rules_wholeprogram

    rules: List[ProgramRule] = [
        rule_cls() for rule_cls in rules_wholeprogram.PROGRAM_RULES
    ]
    rules.sort(key=lambda rule: rule.rule_id)
    return rules


def iter_python_files(paths: Sequence[PathLike]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    yield child
        elif path.suffix == ".py":
            yield path


def load_context(
    path: Path, display_path: Optional[str] = None
) -> Tuple[Optional[FileContext], Optional[Diagnostic]]:
    """Parse one file into a :class:`FileContext`, or an ENG00x diagnostic."""
    display = display_path if display_path is not None else path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return None, Diagnostic(display, 1, 1, "ENG001", f"unreadable file: {error}")
    try:
        return FileContext(path, display, source), None
    except SyntaxError as error:
        return None, Diagnostic(
            display,
            error.lineno or 1,
            error.offset or 1,
            "ENG002",
            f"syntax error: {error.msg}",
        )


def _check_context(
    ctx: FileContext, rules: Sequence[Rule]
) -> Tuple[List[Diagnostic], int]:
    findings: List[Diagnostic] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    findings.sort(key=lambda d: (d.line, d.col, d.rule_id))
    kept = [d for d in findings if not ctx.is_suppressed(d)]
    return kept, len(findings) - len(kept)


def lint_file(
    path: Path, rules: Sequence[Rule], display_path: Optional[str] = None
) -> Tuple[List[Diagnostic], int]:
    """Lint one file; returns (unsuppressed diagnostics, pragma count)."""
    ctx, error = load_context(path, display_path)
    if ctx is None:
        return [error] if error is not None else [], 0
    return _check_context(ctx, rules)


def lint_paths(
    paths: Sequence[PathLike],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    whole_program: bool = False,
    program_rules: Optional[Sequence[ProgramRule]] = None,
    program_out: Optional[List[ProgramContext]] = None,
) -> LintReport:
    """Lint every python file under ``paths`` and aggregate the findings.

    With ``whole_program=True`` the parsed contexts are additionally fed
    through the project call graph + summaries and the interprocedural
    rule families (``default_program_rules``); per-file rules superseded by
    an interprocedural refinement (``SUPERSEDED_IN_WHOLE_PROGRAM``) are
    dropped so the same site is not reported twice.  ``program_out``, when
    given, receives the built :class:`ProgramContext` (the CLI uses this
    for ``--callgraph-json``).
    """
    active = list(rules) if rules is not None else default_rules()
    if whole_program:
        active = [r for r in active if r.rule_id not in SUPERSEDED_IN_WHOLE_PROGRAM]
    diagnostics: List[Diagnostic] = []
    contexts: List[FileContext] = []
    suppressed_pragma = 0
    files = 0
    for path in iter_python_files(paths):
        files += 1
        ctx, error = load_context(path)
        if ctx is None:
            if error is not None:
                diagnostics.append(error)
            continue
        found, pragma_count = _check_context(ctx, active)
        diagnostics.extend(found)
        suppressed_pragma += pragma_count
        contexts.append(ctx)
    if whole_program:
        program = ProgramContext.build(contexts)
        if program_out is not None:
            program_out.append(program)
        prules = (
            list(program_rules)
            if program_rules is not None
            else default_program_rules()
        )
        for prule in prules:
            for diagnostic in prule.check_program(program):
                owner = program.context_for(diagnostic.path)
                if owner is not None and owner.is_suppressed(diagnostic):
                    suppressed_pragma += 1
                else:
                    diagnostics.append(diagnostic)
        diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule_id))
    suppressed_baseline = 0
    if baseline is not None:
        diagnostics, suppressed_baseline = baseline.filter(diagnostics)
    return LintReport(
        diagnostics=diagnostics,
        files_checked=files,
        suppressed_pragma=suppressed_pragma,
        suppressed_baseline=suppressed_baseline,
    )
