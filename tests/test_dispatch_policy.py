"""Tests for the unified dispatch policy: cost model, specs, overrides, parity."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.defenses import Bulyan, Krum
from repro.defenses.krum import krum_scores_from_distances
from repro.defenses.distances import pairwise_cosine_similarities, pairwise_sq_distances
from repro.experiments import ExperimentRunner, GridRunner, smoke_scale
from repro.experiments.runner import build_simulation
from repro.fl.dispatch_policy import (
    BenchRecord,
    CostModel,
    DispatchPolicy,
)
from repro.fl.executor import SerialExecutor, ThreadedExecutor
from repro.fl.types import DefenseContext, ModelUpdate

LEDGER_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _synthetic_model() -> CostModel:
    """A hand-calibrated model with a known serial/process crossover.

    At the recorded scale (items=8, work=8e4): serial 10ms, process 20ms —
    pooling loses.  Scaling work x1000 with the same item count leaves the
    per-item overhead constant while the compute halves across 2 workers,
    so process wins decisively.
    """
    return CostModel(
        [
            BenchRecord(
                site="refd",
                backend="process",
                items=8,
                work=8e4,
                serial_s=0.01,
                parallel_s=0.02,
                workers=2,
            )
        ]
    )


class TestCostModel:
    def test_golden_decision_table(self):
        model = _synthetic_model()
        table = [
            # (items, work, workers) -> expected backend
            ((8, 8e4, 2), "serial"),  # bench scale: pooling measured slower
            ((8, 8e7, 2), "process"),  # 1000x work: compute dominates overhead
            ((8, 8e7, 1), "serial"),  # one worker can never win
            ((1, 8e7, 2), "serial"),  # single item: nothing to fan out
            ((8, None, 2), "serial"),  # unknown work: stay serial
        ]
        for (items, work, workers), expected in table:
            backend, reason, _, _ = model.choose(
                "refd", items=items, work=work, workers=workers
            )
            assert backend == expected, (items, work, workers, reason)

    def test_serial_bias_margin(self):
        # Pooled estimate must beat margin * serial, not merely tie it.
        model = _synthetic_model()
        est_serial = model.estimate_serial("refd", 8e4)
        est_par = model.estimate_parallel("refd", "process", 8e4, items=8, workers=2)
        assert est_serial == pytest.approx(0.01)
        assert est_par == pytest.approx(0.02)
        # Find roughly where the raw estimates tie and check the margin keeps
        # the decision serial there.
        work = 8e4
        while True:
            est_serial = model.estimate_serial("refd", work)
            est_par = model.estimate_parallel("refd", "process", work, 8, 2)
            if est_par < est_serial:
                break
            work *= 1.5
        if est_par >= model.margin * est_serial:
            backend, _, _, _ = model.choose("refd", items=8, work=work, workers=2)
            assert backend == "serial"

    def test_grid_site_rule(self):
        model = CostModel()
        assert model.choose("grid", items=6, work=6.0, workers=4)[0] == "process"
        assert model.choose("grid", items=1, work=1.0, workers=4)[0] == "serial"
        assert model.choose("grid", items=6, work=6.0, workers=1)[0] == "serial"

    def test_from_ledger_dispatch_sites_shape(self):
        payload = {
            "results": {
                "dispatch_sites": [
                    {
                        "site": "refd",
                        "backend": "process",
                        "items": 8,
                        "work": 8e4,
                        "serial_s": 0.01,
                        "parallel_s": 0.02,
                        "workers": 2,
                    }
                ]
            }
        }
        model = CostModel.from_ledger(payload)
        assert model.choose("refd", items=8, work=8e4, workers=2)[0] == "serial"
        assert model.choose("refd", items=8, work=8e7, workers=2)[0] == "process"

    def test_from_ledger_legacy_shape(self, tmp_path):
        payload = {
            "results": {
                "refd_fanout": {"serial_s": 0.012, "process_s": 0.0195, "workers": 2},
                "round_dispatch": {"inline_s": 0.11, "shm_s": 0.13},
                "e2e_round": {"current_s": 0.104},
            }
        }
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(payload))
        model = CostModel.from_ledger(path)
        # The measured refd fan-out lost at bench scale -> serial there.
        assert model.choose("refd", items=8, work=8 * 3818.0, workers=2)[0] == "serial"
        # shm cost 20ms slower than inline -> crossover well above tiny payloads.
        assert model.shm_min_bytes > 1 << 20

    def test_committed_ledger_pins_distance_serial_at_bench_scale(self):
        # Regression guard for the ledger-documented 0.12x distance-block
        # fan-out: at bench scale (4 blocks of a 10x100k matrix) the model
        # built from the committed ledger must keep the row blocks inline.
        model = CostModel.from_ledger(LEDGER_PATH)
        backend, reason, _, _ = model.choose(
            "distance", items=4, work=10 * 10 * 100_000.0, workers=2
        )
        assert backend == "serial", reason

    def test_adaptive_pairwise_stays_serial_at_bench_scale(self):
        policy = DispatchPolicy.adaptive(
            workers=2, cost_model=CostModel.from_ledger(LEDGER_PATH)
        )
        matrix = np.random.default_rng(0).normal(size=(10, 4096)).astype(np.float32)
        pairwise_sq_distances(matrix, dispatch=policy)
        distance_decisions = [d for d in policy.trace if d.site == "distance"]
        assert distance_decisions, "distance site never consulted"
        assert all(d.backend == "serial" for d in distance_decisions)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            CostModel([BenchRecord("bogus", "process", 8, 8e4, 0.01, 0.02)])


class TestParseAndCoerce:
    def test_parse_specs(self):
        assert DispatchPolicy.parse("serial").backend == "serial"
        policy = DispatchPolicy.parse("process:4")
        assert policy.backend == "process" and policy.workers == 4
        policy = DispatchPolicy.parse("adaptive:2,distance=serial")
        assert policy.is_adaptive and policy.workers == 2
        assert policy.overrides == {"distance": "serial"}
        assert DispatchPolicy.parse(None).backend == "serial"
        assert DispatchPolicy.parse("").backend == "serial"
        existing = DispatchPolicy.serial()
        assert DispatchPolicy.parse(existing) is existing

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            DispatchPolicy.parse("bogus")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,distance")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,bogus=serial")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,distance=bogus")

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
    def test_for_executor_is_cached_per_instance(self):
        """A policy builds one executor per backend and hands that same
        instance back for every later decision on the backend."""
        with DispatchPolicy.fixed("thread", workers=2) as policy:
            decision = policy.decide("refd", items=4, work=1e3)
            assert decision.backend == "thread"
            executor = policy.executor_for(decision)
            assert isinstance(executor, ThreadedExecutor)
            again = policy.decide("distance", items=8, work=1e3)
            assert policy.executor_for(again) is executor
            assert DispatchPolicy.coerce(policy).executor_for(decision) is executor

    def test_dispatch_for_prefers_context_dispatch(self):
        """Defenses route their distance plane through ``context.dispatch``;
        without one they run the serial kernels and record nothing."""
        rng = np.random.default_rng(5)
        updates = [
            ModelUpdate(client_id=i, parameters=rng.normal(size=64).astype(np.float32), num_samples=10)
            for i in range(6)
        ]

        def context(dispatch):
            return DefenseContext(
                round_number=0,
                global_params=np.zeros(64, dtype=np.float32),
                expected_num_malicious=1,
                rng=np.random.default_rng(0),
                dispatch=dispatch,
            )

        policy = DispatchPolicy.serial()
        routed = Krum().aggregate(list(updates), context(policy))
        assert policy.counter_snapshot()["decisions"] > 0
        assert "distance" in {d.site for d in policy.trace}
        bare = Krum().aggregate(list(updates), context(None))
        assert routed.accepted_client_ids == bare.accepted_client_ids
        assert np.array_equal(routed.new_params, bare.new_params)

    def test_overrides_pin_sites(self):
        policy = DispatchPolicy.adaptive(workers=2, overrides={"distance": "serial"})
        decision = policy.decide("distance", items=8, work=1e12)
        assert decision.backend == "serial"
        assert "override" in decision.reason
        with pytest.raises(ValueError):
            DispatchPolicy.adaptive(overrides={"distance": "bogus"})
        with pytest.raises(ValueError):
            DispatchPolicy.adaptive(overrides={"bogus": "serial"})

    def test_trace_deduplicates_with_counts(self):
        policy = DispatchPolicy.serial()
        policy.decide("round", items=4, work=10.0)
        policy.decide("round", items=4, work=10.0)
        policy.decide("refd", items=4, work=10.0)
        assert len(policy.trace) == 2
        round_entry = next(d for d in policy.trace if d.site == "round")
        assert round_entry.count == 2
        snapshot = policy.counter_snapshot()
        assert snapshot["decisions"] == 3
        assert snapshot["serial"] == 3
        dicts = policy.trace_dicts()
        assert all({"site", "backend", "reason", "count"} <= set(d) for d in dicts)


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


class TestMidRunBackendSwitchParity:
    def test_bitwise_parity_across_backend_switches(self):
        config = smoke_scale(
            "fashion-mnist", attack="lie", defense="mkrum", num_rounds=3
        )

        with build_simulation(config, policy="serial") as simulation:
            for _ in range(3):
                simulation.run_round()
            reference = simulation.server.global_params.copy()

        policy = DispatchPolicy.fixed("serial")
        with build_simulation(config, policy=policy) as simulation:
            simulation.run_round()  # round 1: serial
            policy.overrides.update(
                {"round": "thread", "distance": "thread", "refd": "thread"}
            )
            policy.workers = 2
            simulation.run_round()  # round 2: threads
            policy.overrides.update(
                {"round": "process", "distance": "process", "refd": "process"}
            )
            simulation.run_round()  # round 3: processes
            switched = simulation.server.global_params.copy()
            backends = {d.backend for d in policy.trace}

        assert np.array_equal(reference, switched)
        assert {"serial", "thread", "process"} <= backends


class TestDistanceCache:
    """Repeated distance calls through one policy.

    Nothing is carried between calls any more (the cross-round cache never
    hit in practice and was removed), so every call must equal a bare
    recomputation.  These tests keep the contracts such a cache had to
    honour: exact repeats, row-local changes, per-epsilon separation.
    """

    def test_repeat_call_hits_every_pair(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 64)).astype(np.float32)
        policy = DispatchPolicy.serial()
        first = pairwise_sq_distances(matrix, dispatch=policy)
        second = pairwise_sq_distances(matrix, dispatch=policy)
        assert first.shape == (6, 6)
        assert np.array_equal(first, second)
        assert np.array_equal(first, pairwise_sq_distances(matrix))

    def test_mutation_invalidates_exactly_affected_pairs(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(6, 64)).astype(np.float32)
        policy = DispatchPolicy.serial()
        before = pairwise_sq_distances(matrix, dispatch=policy)

        mutated = matrix.copy()
        mutated[3] += 1.0
        after = pairwise_sq_distances(mutated, dispatch=policy)
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
        policy = DispatchPolicy.serial()
        base = pairwise_cosine_similarities(matrix, epsilon=0.0, dispatch=policy)
        other = pairwise_cosine_similarities(matrix, epsilon=1e-3, dispatch=policy)
        # A different epsilon renormalizes the rows: the values genuinely
        # differ, and neither result leaks into the other.
        assert not np.array_equal(base, other)
        assert np.array_equal(base, pairwise_cosine_similarities(matrix, epsilon=0.0))
        assert np.array_equal(other, pairwise_cosine_similarities(matrix, epsilon=1e-3))
        repeat = pairwise_cosine_similarities(matrix, epsilon=1e-3, dispatch=policy)
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
