"""Tests for the contract linter (``repro.analysis`` / ``repro lint``).

Every rule family gets a violating/clean fixture pair asserting exact rule
IDs and line numbers; the engine machinery (pragmas, baseline round-trip,
module derivation) and the CLI surface are covered; and a self-lint test
pins the shipped tree to zero findings so contract regressions fail CI
with a precise ``file:line:col RULE-ID`` diagnostic.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Diagnostic,
    default_rules,
    lint_paths,
    module_name_for,
)
from repro.analysis.engine import lint_file
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

TYPED_CORE = [
    "src/repro/fl/types.py",
    "src/repro/nn/serialization.py",
    "src/repro/experiments/config.py",
    "src/repro/fl/dispatch_policy.py",
    "src/repro/analysis/engine.py",
    "src/repro/analysis/callgraph.py",
    "src/repro/analysis/summaries.py",
]


def lint_snippet(tmp_path, relpath, source):
    """Write a dedented snippet at ``relpath`` and lint it with all rules."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path])


def findings_of(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


def lines_of(report, rule_id):
    return [d.line for d in findings_of(report, rule_id)]


# ----------------------------------------------------------------------
# Engine machinery
# ----------------------------------------------------------------------
class TestEngine:
    def test_diagnostic_renders_file_line_col_rule_message(self):
        diag = Diagnostic("src/x.py", 3, 7, "RNG001", "no global RNG")
        assert diag.render() == "src/x.py:3:7 RNG001 no global RNG"

    def test_module_name_derivation(self):
        assert module_name_for(Path("src/repro/fl/types.py")) == "repro.fl.types"
        assert module_name_for(Path("/a/b/src/repro/nn/__init__.py")) == "repro.nn"
        assert module_name_for(Path("tests/test_grid.py")) == "tests.test_grid"
        assert module_name_for(Path("scripts/tool.py")) is None

    def test_rule_ids_are_unique_and_documented(self):
        rules = default_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        for rule in rules:
            assert rule.contract, f"{rule.rule_id} has no contract text"

    def test_syntax_error_reports_eng002(self, tmp_path):
        report = lint_snippet(tmp_path, "src/repro/fl/broken.py", "def f(:\n")
        assert [d.rule_id for d in report.diagnostics] == ["ENG002"]

    def test_files_are_visited_in_sorted_order(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("import random\n")
        report = lint_paths([tmp_path])
        assert [Path(d.path).name for d in report.diagnostics] == [
            "a.py",
            "b.py",
            "c.py",
        ]


class TestPragmas:
    VIOLATION = textwrap.dedent(
        """\
        import numpy as np

        def f():
            np.random.seed(0)
        """
    )

    def test_unsuppressed_violation_is_reported(self, tmp_path):
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", self.VIOLATION)
        assert lines_of(report, "RNG001") == [4]

    def test_same_line_pragma_suppresses(self, tmp_path):
        source = self.VIOLATION.replace(
            "np.random.seed(0)",
            "np.random.seed(0)  # repro: allow[RNG001] fixture",
        )
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok
        assert report.suppressed_pragma == 1

    def test_comment_line_above_suppresses(self, tmp_path):
        source = self.VIOLATION.replace(
            "    np.random.seed(0)",
            "    # repro: allow[RNG001] fixture\n    np.random.seed(0)",
        )
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 1

    def test_multi_line_comment_block_pragma_covers_first_code_line(self, tmp_path):
        source = self.VIOLATION.replace(
            "    np.random.seed(0)",
            "    # repro: allow[RNG001] a justification that needs\n"
            "    # a second comment line to fit\n"
            "    np.random.seed(0)",
        )
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 1

    def test_wildcard_and_multi_id_pragmas(self, tmp_path):
        source = """\
        import numpy as np
        import random  # repro: allow[*] wildcard fixture

        def f():
            np.random.seed(0)  # repro: allow[RNG001, RNG004] multi-id fixture
        """
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 2

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        source = self.VIOLATION.replace(
            "np.random.seed(0)",
            "np.random.seed(0)  # repro: allow[DT001] wrong id",
        )
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert lines_of(report, "RNG001") == [4]

    DECORATED = textwrap.dedent(
        """\
        import functools
        import numpy as np

        @functools.lru_cache(maxsize=None)
        def f():
            np.random.seed(0)
        """
    )

    def test_decorated_def_violation_is_reported(self, tmp_path):
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", self.DECORATED)
        assert lines_of(report, "RNG001") == [6]

    def test_block_pragma_above_decorator_suppresses(self, tmp_path):
        source = self.DECORATED.replace(
            "np.random.seed(0)",
            "np.random.seed(0)  # repro: allow[RNG001] fixture",
        )
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 1

    def test_pragma_above_decorator_covers_def_line_finding(self, tmp_path):
        # The finding anchors on the ``def`` line (a mutable default), but
        # the natural place for the pragma is above the decorator stack.
        source = """\
        import functools
        import numpy as np

        # repro: allow[RNG001] fixture: pragma above the decorator
        @functools.lru_cache(maxsize=None)
        def f(noise=np.random.rand(3)):
            return noise
        """
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 1

    def test_pragma_above_multiline_decorator_covers_def_line(self, tmp_path):
        source = """\
        import functools
        import numpy as np

        # repro: allow[RNG001] fixture: multi-line decorator call
        @functools.lru_cache(
            maxsize=None,
        )
        def f(noise=np.random.rand(3)):
            return noise
        """
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.ok and report.suppressed_pragma == 1

    def test_pragma_above_decorator_does_not_leak_past_the_def(self, tmp_path):
        source = """\
        import functools
        import numpy as np

        # repro: allow[RNG001] fixture
        @functools.lru_cache(maxsize=None)
        def f(noise=np.random.rand(3)):
            return noise

        def g():
            np.random.seed(0)
        """
        report = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert report.suppressed_pragma == 1
        assert lines_of(report, "RNG001") == [10]


class TestBaseline:
    def test_round_trip_suppresses_then_catches_new_findings(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/a.py",
            """\
            import random
            import numpy as np

            def f():
                np.random.seed(0)
            """,
        )
        assert len(report.diagnostics) == 2
        baseline_path = tmp_path / "lint-baseline.json"
        Baseline.from_diagnostics(report.diagnostics).save(baseline_path)

        loaded = Baseline.load(baseline_path)
        fresh, suppressed = loaded.filter(report.diagnostics)
        assert fresh == [] and suppressed == 2

        # A *new* violation of an already-baselined rule still fails.
        source_path = tmp_path / "src/repro/fl/a.py"
        source_path.write_text(
            source_path.read_text() + "\n\ndef g():\n    np.random.rand(3)\n"
        )
        report2 = lint_paths([source_path], baseline=loaded)
        assert report2.suppressed_baseline == 2
        assert [d.rule_id for d in report2.diagnostics] == ["RNG001"]
        assert "rand" in report2.diagnostics[0].message

    def test_missing_baseline_file_suppresses_nothing(self, tmp_path):
        loaded = Baseline.load(tmp_path / "absent.json")
        assert loaded.counts == {}


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------
class TestRngRules:
    def test_rng001_global_state_calls(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/a.py",
            """\
            import numpy as np
            from numpy.random import shuffle

            def f():
                np.random.seed(0)
                np.random.shuffle([1, 2])
                return np.random.rand(3)
            """,
        )
        assert lines_of(report, "RNG001") == [2, 5, 6, 7]

    def test_rng001_clean_generator_usage(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/a.py",
            """\
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(3)
            """,
        )
        assert report.ok

    def test_rng002_stdlib_random(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/experiments/a.py",
            """\
            import random
            from random import choice
            """,
        )
        assert lines_of(report, "RNG002") == [1, 2]

    def test_rng003_entropy_in_science_package(self, tmp_path):
        source = """\
        import time
        import uuid

        def f():
            return time.time(), uuid.uuid4()

        def deadline():
            return time.monotonic()
        """
        science = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert lines_of(science, "RNG003") == [5, 5]
        # The same calls outside a science package are legitimate
        # (lease heartbeats, tmp names) and not flagged.
        infra = lint_snippet(tmp_path, "src/repro/experiments/b.py", source)
        assert findings_of(infra, "RNG003") == []

    def test_rng004_seed_construction_only_in_the_seam(self, tmp_path):
        source = """\
        import numpy as np

        def f(seed):
            ss = np.random.SeedSequence(seed)
            return np.random.Generator(np.random.PCG64(ss))
        """
        elsewhere = lint_snippet(tmp_path, "src/repro/fl/a.py", source)
        assert lines_of(elsewhere, "RNG004") == [4, 5, 5]
        seam = lint_snippet(tmp_path, "src/repro/utils/rng.py", source)
        assert findings_of(seam, "RNG004") == []


# ----------------------------------------------------------------------
# Dtype contract
# ----------------------------------------------------------------------
class TestDtypeRules:
    def test_dt001_untracked_einsum_and_matmul_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/defenses/geometry.py",
            """\
            import numpy as np

            def bad(a, b):
                return np.einsum("ij,kj->ik", a, b)

            def bad_matmul(a, b):
                return a @ b
            """,
        )
        assert lines_of(report, "DT001") == [4, 7]

    def test_dt001_float64_traced_operands_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/defenses/geometry.py",
            """\
            import numpy as np

            def good(a, b):
                left = np.asarray(a, dtype=np.float64)
                right = b.astype(np.float64)
                gram = np.einsum("ij,kj->ik", left, right)
                return left[:2] @ right.T

            def good_kwarg(a, b):
                return np.dot(a, b, dtype=np.float64)
            """,
        )
        assert findings_of(report, "DT001") == []

    def test_dt001_sum_mean_checked_only_in_distance_modules(self, tmp_path):
        source = """\
        import numpy as np

        def bad(diff):
            return diff.sum(axis=1)

        def good(diff):
            acc = np.asarray(diff, dtype=np.float64)
            return acc.sum(axis=1)

        def good_kwarg(diff):
            return np.sum(diff, axis=1, dtype=np.float64)
        """
        distances = lint_snippet(tmp_path, "src/repro/defenses/distances.py", source)
        assert lines_of(distances, "DT001") == [4]
        # The float32 aggregation plane (statistics.py etc.) is contractually
        # float32 — sum/mean there must NOT be flagged.
        other = lint_snippet(tmp_path, "src/repro/defenses/statistics.py", source)
        assert findings_of(other, "DT001") == []

    def test_dt001_does_not_apply_outside_defenses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/attacks/a.py",
            """\
            import numpy as np

            def f(a, b):
                return np.einsum("ij,kj->ik", a, b)
            """,
        )
        assert findings_of(report, "DT001") == []

    def test_dt002_float64_promotion_in_nn(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/nn/layers.py",
            """\
            import numpy as np

            def promote(x):
                return x.astype(np.float64)

            def promote_str(x):
                return x.astype("float64")

            def keep(x):
                return x.astype(np.float32)
            """,
        )
        assert lines_of(report, "DT002") == [4, 7]


# ----------------------------------------------------------------------
# Fan-out purity
# ----------------------------------------------------------------------
class TestFanoutRules:
    def test_fo001_lambda_and_bound_method_targets(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/myfan.py",
            """\
            from repro.fl.executor import register_fanout_fn

            class Kernel:
                def run(self, p):
                    return p

            kernel = Kernel()
            register_fanout_fn("repro.fl.myfan:lam", lambda p: p)
            register_fanout_fn("repro.fl.myfan:bound", kernel.run)
            """,
        )
        assert lines_of(report, "FO001") == [8, 9]

    def test_fo002_registration_inside_a_function(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/myfan.py",
            """\
            from repro.fl.executor import register_fanout_fn

            def work(p):
                return p

            def setup():
                register_fanout_fn("repro.fl.myfan:late", work)
            """,
        )
        assert lines_of(report, "FO002") == [7]

    def test_fo003_name_must_match_defining_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/myfan.py",
            """\
            from repro.fl.executor import register_fanout_fn

            def work(p):
                return p

            register_fanout_fn("repro.fl.other:work", work)
            register_fanout_fn("nocolon", work)
            """,
        )
        assert lines_of(report, "FO003") == [6, 7]

    def test_clean_module_level_registration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/myfan.py",
            """\
            from repro.fl.executor import register_fanout_fn

            WORK_FANOUT = "repro.fl.myfan:work"

            def work(p):
                return p

            register_fanout_fn(WORK_FANOUT, work)
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
class TestShmRule:
    def test_shm001_leaked_constructions(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/shmex.py",
            """\
            from multiprocessing import shared_memory
            from repro.fl.executor import SharedArrayStore

            def leak(arrays):
                store = SharedArrayStore(arrays)
                return store.name

            def leak_raw(n):
                seg = shared_memory.SharedMemory(create=True, size=n)
                return seg.name
            """,
        )
        assert lines_of(report, "SHM001") == [5, 9]

    def test_shm001_managed_constructions_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/shmex.py",
            """\
            from repro.fl.executor import SharedArrayStore

            def ok_with(arrays):
                with SharedArrayStore(arrays) as store:
                    return store.name

            def ok_finally(arrays):
                store = SharedArrayStore(arrays)
                try:
                    return store.name
                finally:
                    store.close()

            def ok_transfer(arrays):
                store = SharedArrayStore(arrays)
                return store

            def ok_attach(name):
                from multiprocessing import shared_memory
                return shared_memory.SharedMemory(name=name)

            class Owner:
                def __init__(self, arrays):
                    self._store = SharedArrayStore(arrays)

                def close(self):
                    self._store.close()
            """,
        )
        assert report.ok

    def test_shm001_class_without_teardown_is_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/shmex.py",
            """\
            from repro.fl.executor import SharedArrayStore

            class Hoarder:
                def __init__(self, arrays):
                    self._store = SharedArrayStore(arrays)
            """,
        )
        assert lines_of(report, "SHM001") == [5]


# ----------------------------------------------------------------------
# Ordering determinism
# ----------------------------------------------------------------------
class TestOrderingRules:
    def test_ord001_unsorted_scans(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/experiments/scan.py",
            """\
            import os
            from pathlib import Path

            def bad(d):
                return [name for name in os.listdir(d)]

            def bad_path(p):
                for child in Path(p).iterdir():
                    print(child)

            def bad_var(p):
                return list(p.glob("*.json"))
            """,
        )
        assert lines_of(report, "ORD001") == [5, 8, 12]

    def test_ord001_sorted_scans_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/experiments/scan.py",
            """\
            import os
            from pathlib import Path

            def good(d):
                return sorted(os.listdir(d))

            def good_comp(p):
                return sorted(x.name for x in Path(p).iterdir())
            """,
        )
        assert report.ok

    def test_ord002_set_iteration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/pick.py",
            """\
            def bad(pairs):
                uncovered = set(pairs)
                for pair in uncovered:
                    print(pair)
                return {p for p in uncovered}

            def bad_literal():
                for item in {"a", "b"}:
                    print(item)
            """,
        )
        assert lines_of(report, "ORD002") == [3, 5, 8]

    def test_ord002_sorted_iteration_and_membership_are_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "src/repro/fl/pick.py",
            """\
            def good(pairs, probe):
                uncovered = set(pairs)
                hit = probe in uncovered
                for pair in sorted(uncovered):
                    print(pair)
                return hit

            def good_list(items):
                for item in list(items):
                    print(item)
            """,
        )
        assert report.ok


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestLintCli:
    VIOLATING = textwrap.dedent(
        """\
        import random
        """
    )

    def write_violation(self, tmp_path):
        path = tmp_path / "src/repro/fl/v.py"
        path.parent.mkdir(parents=True)
        path.write_text(self.VIOLATING)
        return path

    def test_exit_nonzero_with_rendered_diagnostics(self, tmp_path, capsys):
        path = self.write_violation(tmp_path)
        code = cli_main(["lint", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{path.as_posix()}:1:1 RNG002" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        path = tmp_path / "src/repro/fl/c.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = self.write_violation(tmp_path)
        code = cli_main(["lint", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "RNG002"
        assert payload["findings"][0]["line"] == 1

    def test_baseline_write_and_consume(self, tmp_path, capsys):
        path = self.write_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(path), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert cli_main(["lint", str(path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_list_rules_names_every_rule(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.rule_id in out

    def test_console_entry_point(self, tmp_path):
        path = self.write_violation(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", str(path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "RNG002" in proc.stdout


# ----------------------------------------------------------------------
# The shipped tree honors its own contracts
# ----------------------------------------------------------------------
class TestSelfLint:
    def test_shipped_tree_is_clean_with_empty_baseline(self):
        report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        rendered = "\n".join(d.render() for d in report.diagnostics)
        assert report.ok, f"shipped tree has lint findings:\n{rendered}"
        assert report.files_checked > 50

    def test_lint_file_counts_pragma_suppressions(self):
        distances = REPO_ROOT / "src/repro/defenses/distances.py"
        kept, suppressed = lint_file(distances, default_rules())
        assert kept == []
        assert suppressed == 1  # the documented DT001 pragma site in cosine_block


# ----------------------------------------------------------------------
# Typed-core mypy gate (runs where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
class TestTypedCore:
    def test_mypy_clean_on_typed_core(self):
        mypy_api = pytest.importorskip(
            "mypy.api", reason="mypy not installed; the CI static-analysis job runs it"
        )
        stdout, stderr, status = mypy_api.run(
            ["--config-file", str(REPO_ROOT / "pyproject.toml")]
            + [str(REPO_ROOT / rel) for rel in TYPED_CORE]
        )
        assert status == 0, f"mypy findings on the typed core:\n{stdout}\n{stderr}"
