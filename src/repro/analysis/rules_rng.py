"""RNG-discipline rules: seeded ``numpy.random.Generator`` streams only.

The reproduction's determinism story (PRs 1, 7) requires every stochastic
value to come from an explicitly seeded, explicitly threaded
``np.random.Generator``; science and non-science streams are spawned from
one ``SeedSequence`` seam in :mod:`repro.utils.rng`.  Global-state RNG
(``np.random.seed``/``np.random.shuffle``, the stdlib :mod:`random`
module) and entropy sources (wall clock, ``os.urandom``) silently break
bit-identical serial/process execution and cross-run replays.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .engine import Diagnostic, FileContext, Rule

__all__ = ["RngGlobalStateRule", "RngStdlibRule", "RngEntropyRule", "RngSeedSeamRule", "RULES"]

#: ``numpy.random`` attributes that are NOT process-global state: the
#: sanctioned Generator constructor plus the classes RNG004 polices.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Constructions of RNG seed material, allowed only in the one seam module.
_SEED_CONSTRUCTORS = frozenset(
    {
        "Generator",
        "SeedSequence",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_RNG_SEAM_MODULE = "repro.utils.rng"

#: Wall-clock / OS-entropy callables that must not feed science values.
_ENTROPY_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


def _numpy_random_attr(qualname: str) -> str:
    """The ``X`` of ``numpy.random.X`` (empty string when not that shape)."""
    prefix = "numpy.random."
    if qualname.startswith(prefix):
        tail = qualname[len(prefix) :]
        if "." not in tail:
            return tail
    return ""


class RngGlobalStateRule(Rule):
    rule_id = "RNG001"
    contract = (
        "No process-global numpy RNG: np.random.<fn> calls (seed, shuffle, "
        "rand, ...) are banned everywhere; use a seeded np.random.Generator."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        for node in ctx.nodes(ast.Call):
            qualname = ctx.qualname(node.func)  # type: ignore[attr-defined]
            if qualname is None:
                continue
            attr = _numpy_random_attr(qualname)
            if attr and attr not in _NUMPY_RANDOM_ALLOWED:
                findings.append(
                    ctx.diagnostic(
                        node,
                        self.rule_id,
                        f"global-state numpy RNG call 'np.random.{attr}' breaks "
                        "cross-backend determinism; thread a seeded "
                        "np.random.Generator instead",
                    )
                )
        for node in ctx.nodes(ast.ImportFrom):
            base = ctx._resolve_import_base(node)
            if base != "numpy.random":
                continue
            for alias in node.names:  # type: ignore[attr-defined]
                if alias.name != "*" and alias.name not in _NUMPY_RANDOM_ALLOWED:
                    findings.append(
                        ctx.diagnostic(
                            node,
                            self.rule_id,
                            f"importing global-state 'numpy.random.{alias.name}' "
                            "breaks cross-backend determinism; thread a seeded "
                            "np.random.Generator instead",
                        )
                    )
        return findings


class RngStdlibRule(Rule):
    rule_id = "RNG002"
    contract = (
        "No stdlib random module: its hidden global Mersenne state is "
        "unseedable per-stream; numpy Generators cover every use here."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        for node in ctx.nodes(ast.Import):
            for alias in node.names:  # type: ignore[attr-defined]
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(
                        ctx.diagnostic(
                            node,
                            self.rule_id,
                            "stdlib 'random' is process-global state; use a "
                            "seeded np.random.Generator (repro.utils.rng)",
                        )
                    )
        for node in ctx.nodes(ast.ImportFrom):
            if ctx._resolve_import_base(node) == "random":
                findings.append(
                    ctx.diagnostic(
                        node,
                        self.rule_id,
                        "stdlib 'random' is process-global state; use a "
                        "seeded np.random.Generator (repro.utils.rng)",
                    )
                )
        return findings


class RngEntropyRule(Rule):
    rule_id = "RNG003"
    contract = (
        "Science packages (fl/defenses/attacks/nn/data/models) must not read "
        "wall clock or OS entropy (time.time, os.urandom, uuid4, secrets) "
        "into values; time.monotonic for deadlines is fine."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if not ctx.in_science_package():
            return []
        findings: List[Diagnostic] = []
        for node in ctx.nodes(ast.Call):
            qualname = ctx.qualname(node.func)  # type: ignore[attr-defined]
            if qualname is None:
                continue
            if qualname in _ENTROPY_CALLS or qualname.startswith("secrets."):
                findings.append(
                    ctx.diagnostic(
                        node,
                        self.rule_id,
                        f"'{qualname}' is a nondeterminism source inside a "
                        "science package; science values must derive from the "
                        "experiment seed (time.monotonic is fine for deadlines)",
                    )
                )
        return findings


class RngSeedSeamRule(Rule):
    rule_id = "RNG004"
    contract = (
        "RNG seed material (SeedSequence, bit generators, RandomState, raw "
        "Generator) is constructed only in repro/utils/rng.py — the one "
        "audited seam that derives independent streams from the experiment "
        "seed; everywhere else uses np.random.default_rng or spawn_rngs."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if ctx.module == _RNG_SEAM_MODULE:
            return []
        findings: List[Diagnostic] = []
        for node in ctx.nodes(ast.Call):
            qualname = ctx.qualname(node.func)  # type: ignore[attr-defined]
            if qualname is None:
                continue
            attr = _numpy_random_attr(qualname)
            if attr in _SEED_CONSTRUCTORS:
                findings.append(
                    ctx.diagnostic(
                        node,
                        self.rule_id,
                        f"'np.random.{attr}' construction outside "
                        "repro/utils/rng.py; derive streams via "
                        "repro.utils.rng.spawn_rngs or np.random.default_rng "
                        "so seed derivation stays auditable in one place",
                    )
                )
        return findings


RULES = (RngGlobalStateRule, RngStdlibRule, RngEntropyRule, RngSeedSeamRule)
