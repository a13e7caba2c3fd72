"""Tests for the scenario-grid runner: expansion, hashing, caching, dispatch."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentRunner,
    GridBaselineError,
    GridExecutionError,
    GridRunner,
    GridSpec,
    config_hash,
    expand_grid,
    smoke_scale,
)
from repro.experiments.config import ExperimentConfig


def _tiny_grid(**overrides):
    return expand_grid(
        attacks=("lie",),
        defenses=("mkrum", "median"),
        betas=(0.5, None),
        scale=smoke_scale,
        num_rounds=overrides.pop("num_rounds", 1),
        **overrides,
    )


class TestExpandGrid:
    def test_cross_product_size_and_labels(self):
        grid = _tiny_grid()
        assert len(grid) == 4
        labels = [label for label, _ in grid]
        assert len(set(labels)) == 4
        assert "fashion-mnist/mkrum/lie/beta=0.5/attackers=20%/seed=0" in labels
        assert "fashion-mnist/median/lie/iid/attackers=20%/seed=0" in labels

    def test_configs_carry_the_axis_values(self):
        grid = expand_grid(
            attacks=(None,),
            defenses=("fedavg",),
            malicious_fractions=(0.1, 0.3),
            scale=smoke_scale,
        )
        fractions = sorted(config.malicious_fraction for _, config in grid)
        assert fractions == [0.1, 0.3]
        assert all(config.attack is None for _, config in grid)

    def test_grid_spec_expand_matches_function(self):
        spec = GridSpec(
            attacks=("lie",),
            defenses=("mkrum", "median"),
            betas=(0.5, None),
            scale=smoke_scale,
            overrides={"num_rounds": 1},
        )
        assert spec.size == 4
        assert spec.expand() == _tiny_grid()


class TestConfigHash:
    def test_stable_within_process(self):
        config = smoke_scale(attack="lie", defense="mkrum")
        assert config_hash(config) == config_hash(config)
        assert config_hash(config) == config_hash(smoke_scale(attack="lie", defense="mkrum"))

    def test_sensitive_to_any_field(self):
        config = smoke_scale(attack="lie")
        assert config_hash(config) != config_hash(config.with_overrides(seed=1))
        assert config_hash(config) != config_hash(config.with_overrides(defense="mkrum"))

    def test_stable_across_processes(self):
        """hash() is salted per interpreter; config_hash must not be."""
        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=1)
        local = config_hash(config)
        script = (
            "import json, sys\n"
            "from repro.experiments import config_hash\n"
            "from repro.experiments.config import ExperimentConfig\n"
            "config = ExperimentConfig(**json.loads(sys.argv[1]))\n"
            "print(config_hash(config))\n"
        )
        for _ in range(2):
            output = subprocess.run(
                [sys.executable, "-c", script, json.dumps(config.to_dict())],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).resolve().parent.parent,
                env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            ).stdout.strip()
            assert output == local


class TestGridRunnerCaching:
    def test_miss_then_hit(self, tmp_path):
        grid = _tiny_grid()
        runner = GridRunner(cache_dir=tmp_path)
        first = runner.run(grid)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == len(grid)
        # 2 betas share nothing; each beta has its own clean baseline.
        assert runner.last_stats.baselines_executed == 2
        artifacts = sorted(tmp_path.glob("*.json"))
        assert len(artifacts) == len(grid) + 2

        rerun = GridRunner(cache_dir=tmp_path)
        second = rerun.run(grid)
        assert rerun.last_stats.cache_hits == len(grid)
        assert rerun.last_stats.executed == 0
        assert rerun.last_stats.baselines_executed == 0
        for (label_a, result_a), (label_b, result_b) in zip(first, second):
            assert label_a == label_b
            assert result_a.max_accuracy == result_b.max_accuracy
            assert result_a.asr == result_b.asr
            assert [r.accuracy for r in result_a.records] == [
                r.accuracy for r in result_b.records
            ]

    def test_partial_cache_only_runs_missing_cells(self, tmp_path):
        grid = _tiny_grid()
        GridRunner(cache_dir=tmp_path).run(grid[:2])
        runner = GridRunner(cache_dir=tmp_path)
        runner.run(grid)
        assert runner.last_stats.cache_hits == 2
        assert runner.last_stats.executed == 2

    def test_corrupt_artifact_reruns(self, tmp_path):
        grid = _tiny_grid()[:1]
        runner = GridRunner(cache_dir=tmp_path)
        runner.run(grid)
        for artifact in sorted(tmp_path.glob("*.json")):
            artifact.write_text("{not json")
        rerun = GridRunner(cache_dir=tmp_path)
        rerun.run(grid)
        assert rerun.last_stats.cache_hits == 0
        assert rerun.last_stats.executed == 1

    def test_duplicate_labels_rejected(self):
        grid = _tiny_grid()
        duplicated = [("same-label", config) for _, config in grid[:2]]
        with pytest.raises(ValueError, match="duplicate scenario labels"):
            GridRunner().run(duplicated)

    def test_no_cache_dir_disables_caching(self):
        grid = _tiny_grid()[:1]
        runner = GridRunner()
        runner.run(grid)
        runner.run(grid)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == 1

    def test_results_keep_input_order_and_metrics(self, tmp_path):
        grid = _tiny_grid()
        results = GridRunner(cache_dir=tmp_path).run(grid)
        assert [label for label, _ in results] == [label for label, _ in grid]
        for _, result in results:
            assert result.baseline_accuracy is not None
            assert result.asr is not None


def _killer_run_cell(label, config, baseline_accuracy, **_extras):
    """Module-level so the pool can pickle it: kills its worker for one
    specific cell, behaves like the real worker entry point otherwise."""
    import os

    from repro.experiments.dispatch import resolve_task
    from repro.experiments.runner import run_experiment

    if label == "killer-cell":
        os._exit(1)
    task = resolve_task(config)
    return label, run_experiment(config, baseline_accuracy=baseline_accuracy, task=task)


class TestGridRunnerFailurePaths:
    def _grid_with_poison_cell(self):
        """Three cells; the middle one raises in the worker (unknown attack
        only fails at build time inside run_experiment, not at config
        time)."""
        grid = _tiny_grid()[:2]
        poison = ("poisoned-cell", grid[0][1].with_overrides(attack="no-such-attack"))
        return [grid[0], poison, grid[1]]

    def test_failing_cell_does_not_lose_siblings(self, tmp_path):
        scenario_list = self._grid_with_poison_cell()
        runner = GridRunner(cache_dir=tmp_path)
        with pytest.raises(GridExecutionError) as info:
            runner.run(scenario_list)
        error = info.value
        assert set(error.failures) == {"poisoned-cell"}
        assert "no-such-attack" in error.failures["poisoned-cell"]
        # both siblings completed, streamed and cached
        assert {label for label, _ in error.results} == {
            scenario_list[0][0],
            scenario_list[2][0],
        }
        assert runner.last_stats.executed == 2
        assert runner.last_stats.failed == 1
        assert runner.last_failures == error.failures
        rerun = GridRunner(cache_dir=tmp_path)
        with pytest.raises(GridExecutionError):
            rerun.run(scenario_list)
        assert rerun.last_stats.cache_hits == 2
        assert rerun.last_stats.executed == 0

    @pytest.mark.slow
    def test_failing_cell_does_not_abandon_inflight_pool_siblings(self, tmp_path):
        runner = GridRunner(policy="process:2", cache_dir=tmp_path)
        with pytest.raises(GridExecutionError) as info:
            runner.run(self._grid_with_poison_cell())
        assert len(info.value.results) == 2
        assert runner.last_stats.executed == 2

    @pytest.mark.slow
    def test_dead_worker_breaks_only_its_batch_and_pool_recovers(
        self, tmp_path, monkeypatch
    ):
        """A worker killed mid-cell poisons the shared pool for its batch;
        later batches must run on a fresh pool instead of dying on submit
        (claim batching reuses one pool across many batches)."""
        import repro.experiments.grid as grid_module

        monkeypatch.setattr(grid_module, "_run_cell", _killer_run_cell)
        grid = expand_grid(
            attacks=("lie",),
            defenses=("fedavg", "mkrum", "median", "krum"),
            betas=(0.5, None),
            scale=smoke_scale,
            num_rounds=1,
        )
        scenario_list = [("killer-cell", grid[0][1])] + grid[1:]
        # claim_ttl forces small claim batches -> several batches, one pool
        runner = GridRunner(policy="process:2", cache_dir=tmp_path, claim_ttl=30)
        with pytest.raises(GridExecutionError) as info:
            runner.run(scenario_list)
        assert "killer-cell" in info.value.failures
        stats = runner.last_stats
        # every cell either completed or was recorded as a failure...
        assert stats.executed + stats.failed == len(scenario_list)
        # ...and cells from batches after the crash completed on a new pool
        assert stats.executed >= 4

    def test_unfilled_baseline_raises_with_offending_labels(self, monkeypatch):
        grid = _tiny_grid()
        runner = GridRunner()
        original = GridRunner._execute_batch

        def drop_baselines(self, jobs, phase, ledger=None):
            if phase == "baseline":
                return {}, {}
            return original(self, jobs, phase, ledger)

        monkeypatch.setattr(GridRunner, "_execute_batch", drop_baselines)
        with pytest.raises(GridBaselineError) as info:
            runner.run(grid)
        # every cell whose baseline placeholder survived phase 1 is named
        assert sorted(info.value.labels) == sorted(label for label, _ in grid)

    def test_failed_baseline_job_skips_dependent_cells_only(
        self, tmp_path, monkeypatch
    ):
        grid = _tiny_grid()
        import repro.experiments.grid as grid_module

        original = grid_module._run_cell

        def poisoned_run_cell(label, config, baseline_accuracy, **extras):
            if label.startswith("baseline/"):
                raise RuntimeError("baseline exploded")
            return original(label, config, baseline_accuracy, **extras)

        monkeypatch.setattr(grid_module, "_run_cell", poisoned_run_cell)
        runner = GridRunner(cache_dir=tmp_path)
        with pytest.raises(GridBaselineError):
            runner.run(grid)
        assert runner.last_stats.executed == 0  # no cell ran with a NaN baseline
        # failures: 2 baseline jobs + 4 baseline-starved cells
        assert runner.last_stats.failed == 6

    def test_one_bad_baseline_does_not_starve_the_other(self, tmp_path, monkeypatch):
        """Only the cells depending on the broken baseline are skipped;
        cells with a healthy baseline still execute and are salvaged."""
        grid = _tiny_grid()  # betas (0.5, None) -> two distinct baselines
        import repro.experiments.grid as grid_module

        original = grid_module._run_cell

        def poisoned_run_cell(label, config, baseline_accuracy, **extras):
            if label.startswith("baseline/") and config.beta is None:
                raise RuntimeError("iid baseline exploded")
            return original(label, config, baseline_accuracy, **extras)

        monkeypatch.setattr(grid_module, "_run_cell", poisoned_run_cell)
        runner = GridRunner(cache_dir=tmp_path)
        with pytest.raises(GridBaselineError) as info:
            runner.run(grid)
        iid_labels = [label for label, config in grid if config.beta is None]
        assert info.value.labels == sorted(iid_labels)
        # the beta=0.5 cells completed and ride along on the error
        completed = {label for label, _ in info.value.results}
        assert completed == {label for label, config in grid if config.beta is not None}
        assert runner.last_stats.executed == 2


@pytest.mark.slow
class TestGridRunnerParallel:
    def test_parallel_matches_serial(self, tmp_path):
        grid = _tiny_grid()
        serial = GridRunner().run(grid)
        parallel = GridRunner(policy="process:2", cache_dir=tmp_path / "cache").run(grid)
        for (label_a, result_a), (label_b, result_b) in zip(serial, parallel):
            assert label_a == label_b
            assert result_a.max_accuracy == result_b.max_accuracy
            assert result_a.asr == result_b.asr

    def test_run_many_workers_matches_serial(self):
        configs = [config for _, config in _tiny_grid()]
        serial = ExperimentRunner().run_many(configs)
        parallel = ExperimentRunner().run_many(configs, policy="process:2")
        assert [r.max_accuracy for r in serial] == [r.max_accuracy for r in parallel]
        assert [r.asr for r in serial] == [r.asr for r in parallel]

    def test_progress_streams_one_line_per_cell(self, tmp_path):
        lines = []
        grid = _tiny_grid()
        GridRunner(policy="process:2", cache_dir=tmp_path, progress=lines.append).run(grid)
        grid_lines = [line for line in lines if line.startswith("[grid")]
        assert len(grid_lines) == len(grid)
        GridRunner(policy="process:2", cache_dir=tmp_path, progress=lines.append).run(grid)
        assert sum(1 for line in lines if line.startswith("[cache]")) == len(grid)
