"""Tests for the dispatch policy: specs, its one pool, ownership, counters."""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.defenses import Refd
from repro.experiments import ExperimentRunner, GridRunner, smoke_scale
from repro.experiments.runner import build_simulation
from repro.fl.dispatch_policy import DispatchPolicy, default_worker_count
from repro.fl.types import DefenseContext, ModelUpdate


def _square(x):
    return x * x


class TestParseAndCoerce:
    def test_parse_specs(self):
        assert DispatchPolicy.coerce("serial").backend == "serial"
        policy = DispatchPolicy.coerce("process:4")
        assert policy.backend == "process" and policy.workers == 4
        assert policy.spec == "process:4"
        policy = DispatchPolicy.coerce(" thread:2 ")
        assert policy.backend == "thread" and policy.workers == 2
        assert DispatchPolicy.coerce("process").workers == default_worker_count()
        assert DispatchPolicy.coerce("serial").workers == 1
        assert DispatchPolicy.coerce("serial").spec == "serial"
        assert DispatchPolicy.coerce("").backend == "serial"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            DispatchPolicy.coerce("bogus")
        with pytest.raises(ValueError):
            DispatchPolicy.coerce("process:x")
        with pytest.raises(ValueError, match="at least 1"):
            DispatchPolicy.coerce("process:0")
        with pytest.raises(ValueError, match="at least 1"):
            DispatchPolicy("thread", workers=0)
        with pytest.raises(ValueError, match="unknown backend"):
            DispatchPolicy("gpu")

    @pytest.mark.parametrize("spec", ["adaptive", "process:2,distance=serial"])
    def test_parse_rejects_removed_forms(self, spec):
        """The cost-model mode and per-site suffixes are gone; the error
        names the forms that remain."""
        with pytest.raises(ValueError, match=r"'serial', 'thread\[:N\]' or 'process\[:N\]'"):
            DispatchPolicy.coerce(spec)

    @pytest.mark.parametrize("spec", ["adaptive", "process:0", "thread:x"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["run", "--scale", "smoke", "--rounds", "1"], "--dispatch"),
            (["scenario", "random-weights", "--scale", "smoke"], "--dispatch"),
            (["grid", "--scale", "smoke"], "--dispatch"),
            (["grid", "--scale", "smoke"], "--cell-dispatch"),
        ],
        ids=["run", "scenario", "grid", "grid-cell-dispatch"],
    )
    def test_cli_rejects_bad_spec_as_usage_error(self, command, flag, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([*command, flag, spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "'serial', 'thread[:N]' or 'process[:N]'" in err

    def test_coerce(self):
        assert DispatchPolicy.coerce(None).backend == "serial"
        existing = DispatchPolicy("thread", workers=2)
        assert DispatchPolicy.coerce(existing) is existing
        assert DispatchPolicy.coerce("thread:2").backend == "thread"

    @pytest.mark.parametrize(
        "value", [ThreadPoolExecutor(max_workers=1), 4], ids=["executor", "int"]
    )
    def test_coerce_rejects_non_specs(self, value):
        with pytest.raises(TypeError, match="None, a DispatchPolicy or a str"):
            DispatchPolicy.coerce(value)

    def test_default_worker_count_honours_cpu_affinity(self, monkeypatch):
        """taskset/cpuset limits show in the affinity mask, not cpu_count()."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_worker_count() == 1
        assert DispatchPolicy("process").workers == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert default_worker_count() == 3
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(32)), raising=False
        )
        assert default_worker_count() == 8  # the cap


class TestPinningAndOverrides:
    """A policy runs every fan-out on its one backend and builds at most one
    pool, reused until it is closed."""

    def test_for_executor_is_cached_per_instance(self):
        """The first pooled call builds the pool; later calls reuse it."""
        with DispatchPolicy("thread", workers=2) as policy:
            assert policy._pool is None
            assert policy.map_fn(_square, [1, 2]) == [1, 4]
            pool = policy._pool
            assert isinstance(pool, ThreadPoolExecutor) and pool._max_workers == 2
            assert policy.map_fn(_square, [3, 4]) == [9, 16]
            assert policy._pool is pool
            assert DispatchPolicy.coerce(policy) is policy
        assert policy._pool is None

    def test_dispatch_for_prefers_context_dispatch(self, tiny_task, mlp_factory):
        """REFD hands its per-update inference to ``context.dispatch``;
        without one it runs the fused loop."""
        from repro.nn.serialization import get_flat_params

        params = get_flat_params(mlp_factory())
        rng = np.random.default_rng(5)
        updates = [
            ModelUpdate(
                client_id=i,
                parameters=params + 0.1 * rng.standard_normal(params.shape).astype(np.float32),
                num_samples=10,
            )
            for i in range(4)
        ]

        def context(dispatch):
            return DefenseContext(
                round_number=0,
                global_params=params,
                expected_num_malicious=1,
                rng=np.random.default_rng(0),
                model_factory=mlp_factory,
                reference_dataset=tiny_task.test,
                dispatch=dispatch,
            )

        with DispatchPolicy("thread", workers=2) as policy:
            routed = Refd(num_rejected=1).aggregate(list(updates), context(policy))
            assert policy.counter_snapshot()["fanout_calls"] == len(updates)
        bare = Refd(num_rejected=1).aggregate(list(updates), context(None))
        assert routed.accepted_client_ids == bare.accepted_client_ids
        assert routed.scores == bare.scores
        assert np.array_equal(routed.new_params, bare.new_params)

    def test_fanout_declines_single_items_and_unshared_process_payloads(self):
        with DispatchPolicy("process", workers=2) as policy:
            assert policy.map_fn(abs, [-1]) is None
            assert policy.map_fn(abs, [-1, -2], by_ref=False) is None
            assert policy._pool is None  # declining builds no pool
            assert policy.counter_snapshot()["fanout_calls"] == 0
            assert policy.map_fn(abs, [-1, -2]) == [1, 2]
            assert policy.counter_snapshot()["fanout_calls"] == 2
        with DispatchPolicy("thread", workers=2) as policy:
            # Threads share the caller's memory: nothing is shipped by value.
            assert policy.map_fn(abs, [-1, -2], by_ref=False) == [1, 2]
        with DispatchPolicy() as policy:
            assert policy.map_fn(abs, [-1, -2]) is None
            assert policy.counter_snapshot()["fanout_calls"] == 0


class TestPolicyOwnership:
    """A simulation closes only a policy it built; a caller's policy (and
    its one pool) outlives the simulations it serves."""

    def test_simulations_share_the_callers_executor(self):
        config = smoke_scale("fashion-mnist", attack="lie", defense="refd", num_rounds=1)
        with DispatchPolicy("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as first:
                first.run(1)
            pool = policy._pool
            assert isinstance(pool, ProcessPoolExecutor)
            with build_simulation(config, policy=policy) as second:
                second.run(1)
            assert first.dispatch is second.dispatch is policy
            assert policy._pool is pool
            counters = policy.counter_snapshot()
        # Counters survive both simulations and the policy's own close.
        assert counters == policy.counter_snapshot()
        assert counters["shm_rounds"] == 2
        assert counters["fanout_calls"] > 0

    def test_counter_keys_come_from_the_one_executor(self):
        """The snapshot is the policy's four pool counters, nothing else."""
        config = smoke_scale("fashion-mnist", attack="lie", defense="refd", num_rounds=1)
        with DispatchPolicy("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                simulation.run(1)
            counters = policy.counter_snapshot()
        assert set(counters) == {"shm_rounds", "shard_rounds", "fanout_calls", "pool_rebuilds"}
        assert counters["shm_rounds"] == 1
        assert counters["shard_rounds"] == 1
        assert counters["pool_rebuilds"] == 0

    def test_spec_built_policy_is_closed_with_the_simulation(self):
        config = smoke_scale("fashion-mnist", defense="fedavg", num_rounds=1)
        with build_simulation(config, policy="thread:2") as simulation:
            simulation.run(1)
            assert simulation.dispatch._pool is not None
        assert simulation.dispatch._pool is None
        with DispatchPolicy("thread", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                simulation.run(1)
            assert policy._pool is not None  # still the caller's
        assert policy._pool is None

    def test_cli_stats_json_carries_executor_counters(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        code = cli_main(
            [
                "run", "--scale", "smoke", "--attack", "lie", "--defense", "refd",
                "--rounds", "2", "--dispatch", "process:2",
                "--stats-json", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["dispatch"] == "process:2"
        counters = payload["counters"]
        assert counters["shm_rounds"] > 0
        assert counters["fanout_calls"] > 0


class TestDeprecationShims:
    """The ``executor=``/``workers=`` shims are gone: ``policy=`` is the only
    entry point, and the old keyword arguments are rejected outright."""

    @pytest.mark.parametrize(
        "legacy", [{"executor": "thread"}, {"workers": 2}], ids=["executor", "workers"]
    )
    def test_build_simulation_rejects_executor_kwargs(self, legacy):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        with pytest.raises(TypeError):
            build_simulation(config, **legacy)

    def test_experiment_runner_rejects_workers_kwarg(self):
        with pytest.raises(TypeError):
            ExperimentRunner(workers=2)

    def test_grid_runner_rejects_workers_kwarg(self):
        with pytest.raises(TypeError):
            GridRunner(workers=2)

    def test_policy_and_legacy_kwargs_conflict(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        with pytest.raises(TypeError):
            build_simulation(config, executor="thread", policy="serial")
        with pytest.raises(TypeError):
            GridRunner(workers=2, policy="serial")

    def test_policy_kwarg_warns_nothing(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulation = build_simulation(config, policy="serial")
        try:
            assert simulation.dispatch.backend == "serial"
        finally:
            simulation.close()

    def test_config_dispatch_field_sets_policy_but_not_identity(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        tuned = config.with_overrides(dispatch="thread:2")
        assert tuned.to_dict() == config.to_dict()
        simulation = build_simulation(tuned)
        try:
            assert simulation.dispatch.backend == "thread"
            assert simulation.dispatch.workers == 2
        finally:
            simulation.close()


class TestGridPolicy:
    def test_grid_stats_json_carries_dispatch_spec(self, tmp_path, capsys):
        """The banner and ``--stats-json`` name the sweep's dispatch spec."""
        path = tmp_path / "stats.json"
        code = cli_main(
            [
                "grid", "--attacks", "lie", "--defenses", "median", "--betas", "0.5",
                "--scale", "smoke", "--rounds", "1", "--dispatch", "process:2",
                "--stats-json", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "grid: 1 scenarios, dispatch=process:2," in out
        payload = json.loads(path.read_text())
        assert payload["dispatch"] == "process:2"
        assert set(payload["counters"]) == {
            "shm_rounds", "shard_rounds", "fanout_calls", "pool_rebuilds"
        }
        assert payload["executed"] == 1 and payload["failed"] == 0
        assert "dispatch_decisions" not in payload

    def test_run_many_policy_serial_matches_run(self):
        configs = [smoke_scale("fashion-mnist", attack=None, defense="fedavg")]
        runner = ExperimentRunner()
        results = runner.run_many(configs, policy="serial")
        assert len(results) == 1
        assert results[0].max_accuracy == runner.run(configs[0]).max_accuracy
