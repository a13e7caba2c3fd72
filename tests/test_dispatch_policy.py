"""Tests for the dispatch policy: specs, decisions, executor ownership, parity."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.defenses import Bulyan, Krum, Refd
from repro.defenses.krum import krum_scores_from_distances
from repro.defenses.distances import pairwise_cosine_similarities, pairwise_sq_distances
from repro.experiments import ExperimentRunner, GridRunner, smoke_scale
from repro.experiments.runner import build_simulation
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.executor import ParallelExecutor, SerialExecutor, ThreadedExecutor
from repro.fl.types import DefenseContext, ModelUpdate


class TestParseAndCoerce:
    def test_parse_specs(self):
        assert DispatchPolicy.parse("serial").backend == "serial"
        policy = DispatchPolicy.parse("process:4")
        assert policy.backend == "process" and policy.workers == 4
        policy = DispatchPolicy.parse(" thread:2 ")
        assert policy.backend == "thread" and policy.workers == 2
        assert DispatchPolicy.parse("process").workers is None
        assert DispatchPolicy.parse(None).backend == "serial"
        assert DispatchPolicy.parse("").backend == "serial"
        existing = DispatchPolicy.serial()
        assert DispatchPolicy.parse(existing) is existing

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            DispatchPolicy.parse("bogus")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("process:x")
        with pytest.raises(ValueError, match="at least 1"):
            DispatchPolicy.parse("process:0")

    @pytest.mark.parametrize("spec", ["adaptive", "process:2,distance=serial"])
    def test_parse_rejects_removed_forms(self, spec):
        """The cost-model mode and per-site suffixes are gone; the error
        names the forms that remain."""
        with pytest.raises(ValueError, match=r"'serial', 'thread\[:N\]' or 'process\[:N\]'"):
            DispatchPolicy.parse(spec)

    @pytest.mark.parametrize("spec", ["adaptive", "process:0", "thread:x"])
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--scale", "smoke", "--rounds", "1"],
            ["scenario", "random-weights", "--scale", "smoke"],
            ["grid", "--scale", "smoke"],
        ],
        ids=["run", "scenario", "grid"],
    )
    def test_cli_rejects_bad_spec_as_usage_error(self, command, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([*command, "--dispatch", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --dispatch" in err
        assert "'serial', 'thread[:N]' or 'process[:N]'" in err

    def test_coerce(self):
        assert DispatchPolicy.coerce(None).backend == "serial"
        existing = DispatchPolicy.fixed("thread", workers=2)
        assert DispatchPolicy.coerce(existing) is existing
        assert DispatchPolicy.coerce("thread:2").backend == "thread"

    @pytest.mark.parametrize("value", [SerialExecutor(), 4], ids=["executor", "int"])
    def test_coerce_rejects_non_specs(self, value):
        with pytest.raises(TypeError, match="None, a DispatchPolicy or a str"):
            DispatchPolicy.coerce(value)


class TestPinningAndOverrides:
    """Per-site overrides are gone: a policy pins every site to its one
    backend and hands every decision the one executor it built."""

    def test_for_executor_is_cached_per_instance(self):
        """A policy builds one executor and hands that same instance back
        for every later decision."""
        with DispatchPolicy.fixed("thread", workers=2) as policy:
            assert policy.decide("refd", items=4).backend == "thread"
            executor = policy.executor
            assert isinstance(executor, ThreadedExecutor) and executor.workers == 2
            policy.decide("round", items=8)
            assert policy.executor is executor
            assert DispatchPolicy.coerce(policy).executor is executor

    def test_dispatch_for_prefers_context_dispatch(self, tiny_task, mlp_factory):
        """REFD hands its per-update inference to ``context.dispatch``;
        without one it runs the fused loop and records nothing."""
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

        with DispatchPolicy.fixed("thread", workers=2) as policy:
            routed = Refd(num_rejected=1).aggregate(list(updates), context(policy))
            assert [d.site for d in policy.trace] == ["refd"]
            assert policy.trace[0].backend == "thread"
        bare = Refd(num_rejected=1).aggregate(list(updates), context(None))
        assert routed.accepted_client_ids == bare.accepted_client_ids
        assert routed.scores == bare.scores
        assert np.array_equal(routed.new_params, bare.new_params)

    def test_fanout_declines_single_items_and_unshared_process_payloads(self):
        with DispatchPolicy.fixed("process", workers=2) as policy:
            assert policy.fanout("refd", abs, [-1]) is None
            assert policy.fanout("refd", abs, [-1, -2], payload_by_ref=False) is None
            reasons = [(d.backend, d.reason) for d in policy.trace]
            assert reasons == [
                ("serial", "single work item"),
                ("serial", "process pool without by-reference payloads"),
            ]
            assert policy.counter_snapshot()["process"] == 0
            assert policy.fanout("refd", abs, [-1, -2]) == [1, 2]
            assert policy.counter_snapshot()["process_fanout_calls"] == 2
        with DispatchPolicy.serial() as policy:
            assert policy.fanout("refd", abs, [-1, -2]) is None

    def test_trace_deduplicates_with_counts(self):
        policy = DispatchPolicy.serial()
        policy.decide("round", items=4)
        policy.decide("round", items=4)
        policy.decide("refd", items=4)
        assert len(policy.trace) == 2
        round_entry = next(d for d in policy.trace if d.site == "round")
        assert round_entry.count == 2
        snapshot = policy.counter_snapshot()
        assert snapshot["decisions"] == 3
        assert snapshot["serial"] == 3
        dicts = policy.trace_dicts()
        assert all({"site", "backend", "reason", "count"} <= set(d) for d in dicts)
        with pytest.raises(ValueError, match="distance"):
            policy.decide("distance", items=4)


class TestPolicyOwnership:
    """A simulation closes only a policy it built; a caller's policy (and
    its one executor) outlives the simulations it serves."""

    def test_simulations_share_the_callers_executor(self):
        config = smoke_scale("fashion-mnist", attack="lie", defense="refd", num_rounds=1)
        with DispatchPolicy.fixed("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as first:
                first.run(1)
            with build_simulation(config, policy=policy) as second:
                second.run(1)
            assert first.executor is second.executor is policy.executor
            assert isinstance(policy.executor, ParallelExecutor)
            counters = policy.counter_snapshot()
        # Counters survive both simulations and the policy's own close.
        assert counters == policy.counter_snapshot()
        assert counters["process_shm_rounds"] == 2
        assert counters["process_fanout_calls"] > 0

    def test_counter_keys_come_from_the_one_executor(self):
        """One executor per policy: its ``process_*`` keys cannot be
        overwritten by a second executor of the same backend."""
        config = smoke_scale("fashion-mnist", attack="lie", defense="refd", num_rounds=1)
        with DispatchPolicy.fixed("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                simulation.run(1)
            executor_counters = policy.executor.counter_snapshot()
            prefixed = {
                key[len("process_"):]: value
                for key, value in policy.counter_snapshot().items()
                if key.startswith("process_")
            }
        assert prefixed == executor_counters
        assert executor_counters["shm_rounds"] == 1

    def test_spec_built_policy_is_closed_with_the_simulation(self):
        config = smoke_scale("fashion-mnist", defense="fedavg", num_rounds=1)
        with build_simulation(config, policy="thread:2") as simulation:
            simulation.run(1)
            assert simulation.executor._pool is not None
        assert simulation.executor._pool is None
        with DispatchPolicy.fixed("thread", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                simulation.run(1)
            assert policy.executor._pool is not None  # still the caller's
        assert policy.executor._pool is None

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
        counters = json.loads(path.read_text())["counters"]
        assert counters["process_shm_rounds"] > 0
        assert counters["process_fanout_calls"] > 0


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
            assert isinstance(simulation.executor, SerialExecutor)
        finally:
            simulation.close()

    def test_config_dispatch_field_sets_policy_but_not_identity(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        tuned = config.with_overrides(dispatch="thread:2")
        assert tuned.to_dict() == config.to_dict()
        simulation = build_simulation(tuned)
        try:
            assert isinstance(simulation.executor, ThreadedExecutor)
        finally:
            simulation.close()


class TestDistanceCache:
    """Repeated distance-plane calls.

    Nothing is carried between calls any more (the cross-round cache never
    hit in practice and was removed), so every call must equal a bare
    recomputation.  These tests keep the contracts such a cache had to
    honour: exact repeats, row-local changes, per-epsilon separation.
    """

    def test_repeat_call_hits_every_pair(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 64)).astype(np.float32)
        first = pairwise_sq_distances(matrix)
        second = pairwise_sq_distances(matrix)
        assert first.shape == (6, 6)
        assert np.array_equal(first, second)
        assert np.array_equal(first, pairwise_sq_distances(matrix))

    def test_mutation_invalidates_exactly_affected_pairs(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(6, 64)).astype(np.float32)
        before = pairwise_sq_distances(matrix)

        mutated = matrix.copy()
        mutated[3] += 1.0
        after = pairwise_sq_distances(mutated)
        assert np.array_equal(after, pairwise_sq_distances(mutated))
        # Row 3 participates in 6 of the 21 unordered pairs (incl. (3,3)):
        # off-diagonal pairs through row 3 change, every other pair is
        # bitwise what the previous call returned.
        touched = np.zeros((6, 6), dtype=bool)
        touched[3, :] = touched[:, 3] = True
        assert np.array_equal(after[~touched], before[~touched])
        off_diagonal = touched & ~np.eye(6, dtype=bool)
        assert np.all(after[off_diagonal] != before[off_diagonal])

    def test_krum_bulyan_selections_bitwise_stable_across_cache_hits(self):
        rng = np.random.default_rng(3)
        updates = [
            ModelUpdate(client_id=i, parameters=rng.normal(size=256).astype(np.float32), num_samples=10)
            for i in range(8)
        ]
        policy = DispatchPolicy.serial()

        def context():
            return DefenseContext(
                round_number=0,
                global_params=np.zeros(256, dtype=np.float32),
                expected_num_malicious=2,
                rng=np.random.default_rng(0),
                dispatch=policy,
            )

        matrix = np.stack([update.parameters for update in updates])
        scores = krum_scores_from_distances(pairwise_sq_distances(matrix), 2)
        for defense in (Krum(), Bulyan()):
            cold = defense.aggregate(list(updates), context())
            warm = defense.aggregate(list(updates), context())
            assert cold.accepted_client_ids == warm.accepted_client_ids
            assert np.array_equal(cold.new_params, warm.new_params)
        krum = Krum().aggregate(list(updates), context())
        assert krum.scores == {i: float(score) for i, score in enumerate(scores)}
        assert krum.accepted_client_ids == [int(np.argmin(scores))]

    def test_cosine_epsilon_namespaces_do_not_cross_hit(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 64)).astype(np.float64)
        base = pairwise_cosine_similarities(matrix, epsilon=0.0)
        other = pairwise_cosine_similarities(matrix, epsilon=1e-3)
        # A different epsilon renormalizes the rows: the values genuinely
        # differ, and neither result leaks into the other.
        assert not np.array_equal(base, other)
        assert np.array_equal(base, pairwise_cosine_similarities(matrix, epsilon=0.0))
        assert np.array_equal(other, pairwise_cosine_similarities(matrix, epsilon=1e-3))
        repeat = pairwise_cosine_similarities(matrix, epsilon=1e-3)
        assert np.array_equal(other, repeat)


class TestGridPolicy:
    def test_grid_stats_carry_dispatch_trace(self, tmp_path):
        grid = [
            (
                "cell/0",
                smoke_scale("fashion-mnist", attack=None, defense="fedavg"),
            )
        ]
        runner = GridRunner(policy="serial", cache_dir=tmp_path)
        runner.run(grid)
        decisions = runner.last_stats.dispatch_decisions
        assert decisions and any(d["site"] == "grid" for d in decisions)

    def test_run_many_policy_serial_matches_run(self):
        configs = [smoke_scale("fashion-mnist", attack=None, defense="fedavg")]
        runner = ExperimentRunner()
        results = runner.run_many(configs, policy="serial")
        assert len(results) == 1
        assert results[0].max_accuracy == runner.run(configs[0]).max_accuracy
