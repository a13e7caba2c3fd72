"""Tests for the whole-program analyzer and the sealed-array sanitizer.

Covers the project call graph (golden test over a synthetic package), the
fixpoint summaries, violating/clean fixture pairs for every
interprocedural rule family (RNG101, DT101, MUT001-003) asserting exact
rule IDs and lines, the ``--whole-program`` / ``--callgraph-json`` /
``--changed`` CLI surface, and the runtime cross-validation: a write to a
published broker view raises under ``REPRO_SANITIZE=1`` and the same
write is caught statically by MUT001.
"""

import ast
import json
import subprocess
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_paths
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.engine import load_context
from repro.analysis.summaries import summarize_program
from repro.cli import main as cli_main
from repro.fl.executor import (
    SharedArrayStore,
    SharedParamsLease,
    resolve_shared_array,
)
from repro.utils.sanitize import ENV_VAR, SealedArrayViolation, array_digest, seal

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def wp_lint(tmp_path, files, paths=("src",)):
    write_tree(tmp_path, files)
    return lint_paths([tmp_path / p for p in paths], whole_program=True)


def findings_of(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


def lines_of(report, rule_id):
    return [d.line for d in findings_of(report, rule_id)]


def contexts_for(tmp_path, files):
    write_tree(tmp_path, files)
    contexts = []
    for path in sorted(tmp_path.rglob("*.py")):
        ctx, error = load_context(path)
        assert error is None, error
        contexts.append(ctx)
    return contexts


# ----------------------------------------------------------------------
# Call graph golden test over a small synthetic package
# ----------------------------------------------------------------------
SYNTHETIC_PKG = {
    "src/pkg/__init__.py": """\
        from .a import outer
        """,
    "src/pkg/a.py": """\
        from .b import helper

        def outer(x):
            return helper(x)

        def unused(x):
            return outer(x)
        """,
    "src/pkg/b.py": """\
        def inner(x):
            return x + 1

        def helper(x):
            return inner(x)
        """,
    "src/pkg/c.py": """\
        class Box:
            def __init__(self, value):
                self._value = value

            def get(self):
                return self._value

            def double(self):
                return self.get() + self.get()
        """,
}


class TestCallGraph:
    def test_symbol_table_and_edges(self, tmp_path):
        contexts = contexts_for(tmp_path, SYNTHETIC_PKG)
        index = ProjectIndex(contexts)
        graph = CallGraph(index)
        assert set(index.functions) == {
            "pkg.a.outer",
            "pkg.a.unused",
            "pkg.b.inner",
            "pkg.b.helper",
            "pkg.c.Box.__init__",
            "pkg.c.Box.get",
            "pkg.c.Box.double",
        }
        assert graph.edges["pkg.a.outer"] == ("pkg.b.helper",)
        assert graph.edges["pkg.a.unused"] == ("pkg.a.outer",)
        assert graph.edges["pkg.b.helper"] == ("pkg.b.inner",)
        # self.method() resolves within the class
        assert graph.edges["pkg.c.Box.double"] == ("pkg.c.Box.get",)

    def test_reexport_alias_chases_to_definition(self, tmp_path):
        contexts = contexts_for(tmp_path, SYNTHETIC_PKG)
        index = ProjectIndex(contexts)
        info = index.resolve("pkg.outer")
        assert info is not None and info.qualname == "pkg.a.outer"

    def test_to_dict_is_json_ready_golden(self, tmp_path):
        contexts = contexts_for(tmp_path, SYNTHETIC_PKG)
        graph = CallGraph(ProjectIndex(contexts))
        payload = json.loads(json.dumps(graph.to_dict()))
        assert payload["version"] == 1
        outer = payload["functions"]["pkg.a.outer"]
        assert outer["module"] == "pkg.a"
        assert outer["line"] == 3
        assert outer["params"] == ["x"]
        assert outer["is_method"] is False
        box_get = payload["functions"]["pkg.c.Box.get"]
        assert box_get["is_method"] is True and box_get["params"] == ["self"]
        assert payload["edges"]["pkg.a.outer"] == ["pkg.b.helper"]

    def test_summaries_fixpoint_rng_taint(self, tmp_path):
        contexts = contexts_for(
            tmp_path,
            {
                "src/pkg/r.py": """\
                    import numpy as np

                    def source():
                        return np.random.default_rng()

                    def middle():
                        return source().random()

                    def top():
                        return middle() + 1.0

                    def seeded(seed):
                        return np.random.default_rng(seed).random()
                    """,
            },
        )
        index = ProjectIndex(contexts)
        summaries = summarize_program(index, CallGraph(index))
        assert summaries["pkg.r.source"].rng_source
        assert summaries["pkg.r.middle"].rng_tainted
        assert summaries["pkg.r.top"].rng_tainted
        assert summaries["pkg.r.top"].rng_via == "pkg.r.middle"
        assert not summaries["pkg.r.seeded"].rng_tainted


# ----------------------------------------------------------------------
# RNG101 — unseeded streams reaching science packages
# ----------------------------------------------------------------------
class TestRng101:
    def test_cross_module_chain_flagged_at_science_boundary(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/helpersx/__init__.py": "",
                "src/repro/helpersx/streams.py": """\
                    import numpy as np

                    def fresh_stream():
                        return np.random.default_rng()

                    def noise(shape):
                        return fresh_stream().standard_normal(shape)
                    """,
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/client.py": """\
                    from repro.helpersx.streams import noise

                    def perturb(update):
                        return update + noise(update.shape)
                    """,
            },
        )
        assert lines_of(report, "RNG101") == [4]
        (finding,) = findings_of(report, "RNG101")
        assert finding.path.endswith("src/repro/fl/client.py")
        assert "fresh_stream" in finding.message  # the chain is spelled out

    def test_direct_source_in_science_module_flagged(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/defenses/__init__.py": "",
                "src/repro/defenses/pick.py": """\
                    import numpy as np

                    def tiebreak(scores):
                        rng = np.random.default_rng()
                        return rng.permutation(len(scores))
                    """,
            },
        )
        assert lines_of(report, "RNG101") == [4]

    def test_sanctioned_idioms_are_exempt(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/clean.py": """\
                    import numpy as np

                    def fallback(rng=None):
                        rng = rng or np.random.default_rng()
                        return rng.standard_normal(3)

                    def restore(state):
                        rng = np.random.default_rng()
                        rng.bit_generator.state = state
                        return rng.random()

                    def seeded(seed):
                        return np.random.default_rng(seed).random()
                    """,
            },
        )
        assert report.ok, [d.render() for d in report.diagnostics]

    def test_pragma_suppresses_rng101(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/entropy.py": """\
                    import numpy as np

                    def salt():
                        # repro: allow[RNG101] non-science nonce fixture
                        return np.random.default_rng().integers(1 << 30)
                    """,
            },
        )
        assert report.ok and report.suppressed_pragma == 1


# ----------------------------------------------------------------------
# DT101 — float64 geometry traced through helper calls
# ----------------------------------------------------------------------
DT_FILES = {
    "src/repro/defenses/__init__.py": "",
    "src/repro/defenses/helpersx.py": """\
        import numpy as np

        def load_f64(x):
            return np.asarray(x, dtype=np.float64)

        def load_f32(x):
            return np.asarray(x, dtype=np.float32)
        """,
    "src/repro/defenses/geometry.py": """\
        import numpy as np
        from repro.defenses.helpersx import load_f32, load_f64

        def bad(a):
            rows = load_f32(a)
            return np.matmul(rows, rows.T)

        def good(a, b):
            left = load_f64(a)
            right = load_f64(b)
            return np.matmul(left, right.T)
        """,
}


class TestDt101:
    def test_float32_helper_flagged_float64_helper_clean(self, tmp_path):
        report = wp_lint(tmp_path, dict(DT_FILES))
        assert lines_of(report, "DT101") == [6]
        # DT001 is superseded in whole-program mode: no double report.
        assert findings_of(report, "DT001") == []

    def test_per_file_dt001_cannot_see_through_the_helper(self, tmp_path):
        write_tree(tmp_path, dict(DT_FILES))
        report = lint_paths([tmp_path / "src"])  # per-file mode
        # Function-locally *both* products are untraceable — the helper
        # refinement is exactly what DT101 adds.
        assert lines_of(report, "DT001") == [6, 11]

    def test_existing_dt001_pragma_also_suppresses_dt101(self, tmp_path):
        files = dict(DT_FILES)
        files["src/repro/defenses/geometry.py"] = """\
            import numpy as np
            from repro.defenses.helpersx import load_f32

            def bad(a):
                rows = load_f32(a)
                # repro: allow[DT001] fixture: float32 by documented contract
                return np.matmul(rows, rows.T)
            """
        report = wp_lint(tmp_path, files)
        assert report.ok and report.suppressed_pragma == 1


# ----------------------------------------------------------------------
# MUT001-003 — mutation safety of the shm data plane
# ----------------------------------------------------------------------
class TestMut001:
    def test_writes_through_resolved_views_flagged(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/use.py": """\
                    from repro.fl.executor import resolve_shared_array

                    def stomp(ref, batch):
                        view = resolve_shared_array(ref)
                        view[0] = 1.0
                        view -= batch
                        view.fill(0.0)
                        view.setflags(write=True)
                        return view
                    """,
            },
        )
        assert lines_of(report, "MUT001") == [5, 6, 7, 8]

    def test_broker_task_attribute_chain_flagged(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/experiments/__init__.py": "",
                "src/repro/experiments/cell.py": """\
                    from repro.experiments.dispatch import resolve_task

                    def poison(config):
                        task = resolve_task(config)
                        task.train.images[0] = 0.0
                        images = task.train.images
                        images[:] = 0.0
                        return task
                    """,
            },
        )
        assert lines_of(report, "MUT001") == [5, 7]

    def test_copy_before_write_is_clean(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/use.py": """\
                    from repro.fl.executor import resolve_shared_array

                    def adjust(ref):
                        scratch = resolve_shared_array(ref).copy()
                        scratch[0] = 1.0
                        scratch -= scratch.mean()
                        return scratch
                    """,
            },
        )
        assert report.ok, [d.render() for d in report.diagnostics]

    def test_sealing_flags_assignment_is_not_a_mutation(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/fl/__init__.py": "",
                "src/repro/fl/use.py": """\
                    from repro.fl.executor import resolve_shared_array

                    def attach(ref):
                        view = resolve_shared_array(ref)
                        view.flags.writeable = False
                        return view
                    """,
            },
        )
        assert report.ok, [d.render() for d in report.diagnostics]


class TestMut002:
    FILES = {
        "src/repro/fl/__init__.py": "",
        "src/repro/fl/ops.py": """\
            def scale_inplace(arr, factor):
                arr *= factor
                return arr

            def normalize(arr):
                return scale_inplace(arr, 0.5)
            """,
        "src/repro/fl/use.py": """\
            from repro.fl.executor import resolve_shared_array
            from repro.fl.ops import normalize, scale_inplace

            def direct(ref):
                view = resolve_shared_array(ref)
                return scale_inplace(view, 2.0)

            def transitive(ref):
                view = resolve_shared_array(ref)
                return normalize(view)
            """,
    }

    def test_direct_and_transitive_escapes_flagged(self, tmp_path):
        report = wp_lint(tmp_path, dict(self.FILES))
        assert lines_of(report, "MUT002") == [6, 10]
        direct, transitive = findings_of(report, "MUT002")
        assert "scale_inplace" in direct.message
        assert "via repro.fl.ops.scale_inplace" in transitive.message

    def test_passing_a_copy_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["src/repro/fl/use.py"] = """\
            from repro.fl.executor import resolve_shared_array
            from repro.fl.ops import normalize

            def safe(ref):
                view = resolve_shared_array(ref)
                return normalize(view.copy())
            """
        report = wp_lint(tmp_path, files)
        assert report.ok, [d.render() for d in report.diagnostics]


class TestMut003:
    def test_registered_trace_kernel_mutating_input_flagged(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/nn/__init__.py": "",
                "src/repro/nn/tkern.py": """\
                    from repro.nn.trace import register_trace_op

                    def fwd(x):
                        x[0] = 1.0
                        return x

                    def vjp(grad):
                        return grad

                    register_trace_op("poke", fwd, vjp)
                    """,
            },
        )
        assert lines_of(report, "MUT003") == [4]
        (finding,) = findings_of(report, "MUT003")
        assert "registered trace kernel" in finding.message
        assert "'x'" in finding.message

    def test_pure_kernel_is_clean(self, tmp_path):
        report = wp_lint(
            tmp_path,
            {
                "src/repro/nn/__init__.py": "",
                "src/repro/nn/tkern.py": """\
                    from repro.nn.trace import register_trace_op

                    def fwd(x, out):
                        local = x - x.mean()
                        out[:] = local
                        return out

                    def vjp(grad):
                        return grad

                    register_trace_op("centre", fwd, vjp)
                    """,
            },
        )
        assert report.ok, [d.render() for d in report.diagnostics]


# ----------------------------------------------------------------------
# CLI surface: --whole-program / --callgraph-json / --changed
# ----------------------------------------------------------------------
class TestWholeProgramCli:
    def test_whole_program_exit_and_callgraph_json(self, tmp_path, capsys):
        write_tree(tmp_path, SYNTHETIC_PKG)
        graph_path = tmp_path / "out" / "callgraph.json"
        code = cli_main(
            [
                "lint",
                "--whole-program",
                "--callgraph-json",
                str(graph_path),
                str(tmp_path / "src"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(graph_path.read_text())
        assert payload["edges"]["pkg.a.outer"] == ["pkg.b.helper"]

    def test_callgraph_json_requires_whole_program(self, tmp_path, capsys):
        code = cli_main(["lint", "--callgraph-json", str(tmp_path / "g.json")])
        assert code == 2
        assert "--whole-program" in capsys.readouterr().err

    def test_whole_program_finding_fails_the_run(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {
                "src/repro/defenses/__init__.py": "",
                "src/repro/defenses/pick.py": """\
                    import numpy as np

                    def tiebreak(scores):
                        return np.random.default_rng().permutation(len(scores))
                    """,
            },
        )
        code = cli_main(["lint", "--whole-program", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert code == 1 and "RNG101" in out

    def test_changed_lints_only_git_changed_files(self, tmp_path, capsys, monkeypatch):
        write_tree(
            tmp_path,
            {
                "src/repro/fl/clean.py": "x = 1\n",
                "src/repro/fl/dirty.py": "import random\n",
            },
        )
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@x", "HOME": str(tmp_path)}
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True, env=env)
        subprocess.run(["git", "add", "src/repro/fl/clean.py"], cwd=tmp_path, check=True, env=env)
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@x", "commit", "-qm", "seed"],
            cwd=tmp_path,
            check=True,
            env=env,
        )
        monkeypatch.chdir(tmp_path)
        # Only dirty.py is untracked/changed; clean.py is committed and
        # untouched, so --changed lints exactly one file and fails on it.
        code = cli_main(["lint", "--changed", "src"])
        out = capsys.readouterr().out
        assert code == 1
        assert "dirty.py" in out and "clean.py" not in out
        assert "1 file(s)" in out

    def test_changed_outside_git_is_a_noop(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nonexistent.git"))
        code = cli_main(["lint", "--changed", "src"])
        captured = capsys.readouterr()
        assert code == 0
        assert "not a git checkout" in captured.err


# ----------------------------------------------------------------------
# Runtime cross-validation: the sealed-array sanitizer
# ----------------------------------------------------------------------
class TestSanitizer:
    def test_sealed_view_rejects_in_place_write(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        store = SharedArrayStore({"x": np.arange(6, dtype=np.float32)})
        try:
            view = resolve_shared_array(store.refs["x"])
            with pytest.raises(ValueError):
                view[0] = 99.0  # repro: allow[MUT001] asserting the seal rejects this
            del view
        finally:
            store.close()

    def test_bypass_write_trips_digest_verification_at_close(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        # repro: allow[SHM001] released below; close() itself is under test
        store = SharedArrayStore({"x": np.arange(6, dtype=np.float32)})
        ref = store.refs["x"]
        # Re-wrap the raw buffer: defeats the sealed writeable flag, which
        # is exactly what the digest re-verification exists to catch.
        raw = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=store._shm.buf, offset=ref.offset
        )
        raw[0] = 123.0
        del raw
        with pytest.raises(SealedArrayViolation) as excinfo:
            store.close()
        assert "x" in str(excinfo.value)
        store.close()  # idempotent after the violation; segment released

    def test_lease_release_verifies_params_segment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        # repro: allow[SHM001] release() itself is under test and must raise
        lease = SharedParamsLease(np.arange(8, dtype=np.float32))
        raw = np.ndarray((8,), dtype=np.float32, buffer=lease._store._shm.buf)
        raw[3] = -1.0
        del raw
        with pytest.raises(SealedArrayViolation):
            lease.release()

    def test_disabled_sanitizer_records_and_checks_nothing(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        # repro: allow[SHM001] closed two lines down; nothing here can raise
        store = SharedArrayStore({"x": np.arange(6, dtype=np.float32)})
        assert store._digests == {}
        raw = np.ndarray((6,), dtype=np.float32, buffer=store._shm.buf)
        raw[0] = 7.0
        del raw
        store.close()  # no digests, no violation

    def test_broker_view_write_raises_and_is_caught_statically(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(ENV_VAR, "1")
        from repro.experiments import smoke_scale
        from repro.experiments.dispatch import DatasetBroker, resolve_task

        config = smoke_scale(attack="lie", defense="median", num_rounds=1)
        with DatasetBroker() as broker:
            broker.publish([config])
            task = resolve_task(config)
            assert task is not None
            # Runtime: the broker view is sealed; writing raises at the site.
            with pytest.raises(ValueError):
                task.train.images[0] = 0.0  # repro: allow[MUT001] asserting the seal
        # Static: the same write is a MUT001 finding.
        report = wp_lint(
            tmp_path,
            {
                "src/repro/experiments/__init__.py": "",
                "src/repro/experiments/cell.py": """\
                    from repro.experiments.dispatch import resolve_task

                    def poison(config):
                        task = resolve_task(config)
                        task.train.images[0] = 0.0
                        return task
                    """,
            },
        )
        assert lines_of(report, "MUT001") == [5]

    def test_array_digest_is_content_sensitive(self):
        a = np.arange(6, dtype=np.float32)
        b = a.copy()
        assert array_digest(a) == array_digest(b)
        b[0] = 5.0
        assert array_digest(a) != array_digest(b)
        assert array_digest(a) != array_digest(a.astype(np.float64))

    def test_seal_marks_read_only(self):
        a = np.arange(3, dtype=np.float32)
        assert seal(a) is a
        with pytest.raises(ValueError):
            a[0] = 1.0


# ----------------------------------------------------------------------
# The shipped tree is whole-program-clean with an empty baseline
# ----------------------------------------------------------------------
class TestWholeProgramSelfLint:
    def test_shipped_tree_is_whole_program_clean(self):
        report = lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tests",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
            ],
            whole_program=True,
        )
        rendered = "\n".join(d.render() for d in report.diagnostics)
        assert report.ok, f"whole-program findings on the shipped tree:\n{rendered}"
        assert report.files_checked > 100

    def test_shipped_callgraph_resolves_core_edges(self):
        contexts = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            ctx, error = load_context(path)
            assert error is None
            contexts.append(ctx)
        index = ProjectIndex(contexts)
        graph = CallGraph(index)
        # Spot-check a known cross-module resolution: ShardRef.resolve
        # calls resolve_shared_array in the same module.
        edges = graph.edges.get("repro.fl.executor.ShardRef.resolve", ())
        assert "repro.fl.executor.resolve_shared_array" in edges
        summaries = summarize_program(index, graph)
        # ShardRef.resolve returns a resolve_shared_array(...) call — a
        # registered view producer — so its summary carries view-ness.
        assert summaries["repro.fl.executor.ShardRef.resolve"].returns_view
        assert "repro.fl.executor.resolve_shared_array" in summaries
