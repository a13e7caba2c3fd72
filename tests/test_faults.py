"""Chaos-path tests: fault injection, recovery, checkpoints, lease steals.

The contract under test is stronger than "the run survives": a run that
recovers from injected faults must be *bit-identical* to the fault-free
run, because the recovery plane only ever re-executes pure tasks whose RNG
state travels with them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_simulation, smoke_scale
from repro.experiments.dispatch import ClaimLedger
from repro.experiments.io import atomic_write_json, quarantine_count, read_json
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.faults import (
    FaultEvent,
    FaultPlan,
    FaultStats,
    ResilienceConfig,
    RoundExecutionError,
)


def _records_signature(result):
    return [
        (
            record.round_number,
            tuple(record.selected_client_ids),
            record.accuracy,
            record.test_loss,
            tuple(record.cut_client_ids),
        )
        for record in result.records
    ]


def _run(resilience=None, policy=None, num_rounds=2, **scale_overrides):
    config = smoke_scale(
        attack="lie", defense="mkrum", num_rounds=num_rounds, **scale_overrides
    )
    with build_simulation(
        config, policy=policy, resilience=resilience
    ) as simulation:
        result = simulation.run(num_rounds)
        params = simulation.server.global_params.copy()
        stats = simulation.fault_stats
    return result, params, stats


class TestFaultPlan:
    def test_roundtrip_through_json(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=1, slot=0, cell="mkrum"),
                FaultEvent(kind="hang", round=0, client=3, seconds=2.5),
                FaultEvent(kind="corrupt-artifact", cell="median"),
            ),
            seed=7,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.from_file(path) == plan

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=3, num_rounds=4, num_slots=8, rate=0.5)
        b = FaultPlan.random(seed=3, num_rounds=4, num_slots=8, rate=0.5)
        c = FaultPlan.random(seed=4, num_rounds=4, num_slots=8, rate=0.5)
        assert a == b
        assert a != c

    def test_for_cell_narrows_by_label_substring(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", cell="mkrum"),
                FaultEvent(kind="hang", seconds=1.0),  # cell=None: all cells
            )
        )
        narrowed = plan.for_cell("fashion-mnist/median/lie")
        assert [event.kind for event in narrowed.events] == ["hang"]
        assert len(plan.for_cell("fashion-mnist/mkrum/lie").events) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(kind="meteor-strike")


class TestRecoveryBitIdentical:
    """Injected faults + recovery must not perturb the science."""

    def test_serial_crash_recovery(self):
        clean, clean_params, _ = _run()
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=0, slot=0),
                FaultEvent(kind="crash", round=1, slot=2),
            )
        )
        chaos, chaos_params, stats = _run(
            ResilienceConfig(max_retries=2, backoff_base=0.0, fault_plan=plan)
        )
        assert stats.crashes_injected == 2
        assert stats.retries >= 2
        assert np.array_equal(clean_params, chaos_params)
        assert _records_signature(clean) == _records_signature(chaos)

    def test_shm_failure_degrades_to_inline_payloads(self):
        clean, clean_params, _ = _run()
        plan = FaultPlan(events=(FaultEvent(kind="shm", round=0, slot=1),))
        chaos, chaos_params, stats = _run(
            ResilienceConfig(max_retries=1, backoff_base=0.0, fault_plan=plan)
        )
        assert stats.shm_failures_injected == 1
        assert stats.shm_fallbacks == 1
        assert np.array_equal(clean_params, chaos_params)
        assert _records_signature(clean) == _records_signature(chaos)

    @pytest.mark.slow
    def test_process_pool_worker_kill_recovery(self):
        """A hard worker kill mid-round breaks the pool; the rebuilt pool
        re-executes only the lost tasks and the run stays bit-identical."""
        clean, clean_params, _ = _run(policy="serial")
        plan = FaultPlan(events=(FaultEvent(kind="crash", round=0, slot=0),))
        chaos, chaos_params, stats = _run(
            resilience=ResilienceConfig(
                max_retries=2, backoff_base=0.0, fault_plan=plan
            ),
            policy=DispatchPolicy("process", workers=2),
        )
        assert stats.crashes_injected == 1
        assert stats.pool_rebuilds >= 1
        assert np.array_equal(clean_params, chaos_params)
        assert _records_signature(clean) == _records_signature(chaos)


class TestStragglerCutoff:
    def test_hung_client_is_cut_and_recorded(self):
        """With no retry budget, a straggler past the deadline is dropped
        from aggregation and shows up in the round record."""
        plan = FaultPlan(events=(FaultEvent(kind="hang", round=0, slot=1, seconds=5.0),))
        result, _, stats = _run(
            ResilienceConfig(
                max_retries=0,
                backoff_base=0.0,
                round_deadline=0.4,
                fault_plan=plan,
            ),
            policy=DispatchPolicy("thread", workers=4),
        )
        assert stats.hangs_injected == 1
        assert stats.tasks_cut >= 1
        assert stats.clients_cut == 1
        cut = [record.cut_client_ids for record in result.records]
        assert len(cut[0]) == 1
        assert cut[1] == []

    def test_hang_with_retry_budget_stays_bit_identical(self):
        """A per-attempt deadline window means the retry (without the
        injected hang) completes and nothing is cut."""
        clean, clean_params, _ = _run(policy=DispatchPolicy("thread", workers=4))
        plan = FaultPlan(events=(FaultEvent(kind="hang", round=0, slot=0, seconds=5.0),))
        chaos, chaos_params, stats = _run(
            ResilienceConfig(
                max_retries=1,
                backoff_base=0.0,
                round_deadline=0.4,
                fault_plan=plan,
            ),
            policy=DispatchPolicy("thread", workers=4),
        )
        assert stats.tasks_cut == 1
        assert stats.clients_cut == 0
        assert np.array_equal(clean_params, chaos_params)
        assert _records_signature(clean) == _records_signature(chaos)


class TestErrorBudget:
    def test_exhausted_budget_names_round_and_client(self):
        plan = FaultPlan(
            events=tuple(
                FaultEvent(kind="crash", round=0, slot=0) for _ in range(1)
            )
        )
        # max_retries=0: the single injected crash exhausts the budget.
        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=1)
        with build_simulation(
            config,
            resilience=ResilienceConfig(
                max_retries=0, backoff_base=0.0, fault_plan=plan
            ),
        ) as simulation:
            with pytest.raises(RoundExecutionError) as excinfo:
                simulation.run(1)
        assert excinfo.value.round_number == 0
        assert excinfo.value.client_id is not None
        assert "round 0" in str(excinfo.value)


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_straight_run(self, tmp_path):
        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=3)
        ckpt = tmp_path / "sim.ckpt.json"

        with build_simulation(config) as straight:
            full = straight.run(3)
            full_params = straight.server.global_params.copy()

        with build_simulation(config) as first:
            first.run(2, checkpoint_path=ckpt)
        assert ckpt.exists()

        with build_simulation(config) as resumed:
            result = resumed.run(3, checkpoint_path=ckpt, resume=True)
            assert resumed.fault_stats.rounds_resumed == 2
            assert np.array_equal(resumed.server.global_params, full_params)
        assert _records_signature(result) == _records_signature(full)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=2)
        ckpt = tmp_path / "missing.ckpt.json"
        with build_simulation(config) as simulation:
            result = simulation.run(2, checkpoint_path=ckpt, resume=True)
        assert len(result.records) == 2
        assert simulation.fault_stats.rounds_resumed == 0


class TestArtifactQuarantine:
    def test_read_json_quarantines_corrupt_artifacts(self, tmp_path):
        path = tmp_path / "cell.json"
        atomic_write_json(path, {"accuracy": 0.5})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        before = quarantine_count()
        assert read_json(path) is None
        assert quarantine_count() == before + 1
        assert not path.exists()
        assert (tmp_path / "cell.json.corrupt").exists()
        # A clean artifact written under the original name reads fine.
        atomic_write_json(path, {"accuracy": 0.5})
        assert read_json(path) == {"accuracy": 0.5}

    def test_read_json_missing_file_is_a_clean_miss(self, tmp_path):
        before = quarantine_count()
        assert read_json(tmp_path / "nope.json") is None
        assert quarantine_count() == before


class TestPoolRebuildBetweenRounds:
    @pytest.mark.slow
    def test_plain_map_survives_a_worker_killed_between_rounds(self):
        """DispatchPolicy.map_tasks() detects a process pool broken while
        idle and transparently rebuilds it once."""
        config = smoke_scale(attack=None, defense="fedavg", num_rounds=1)
        with DispatchPolicy("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                simulation.run(1)
                # Kill one idle worker; the *next* map_tasks() sees a broken pool.
                processes = dict(policy._pool._processes)
                os.kill(next(iter(processes)), signal.SIGKILL)
                time.sleep(0.2)
                simulation.run(1)
        assert policy.pool_rebuilds == 1


class TestLeaseStealUnderKill:
    @pytest.mark.slow
    def test_sigkilled_peer_lease_is_stolen(self, tmp_path):
        """A peer holding a claim with a live heartbeat dies via SIGKILL;
        once its lease goes stale the survivor steals the cell."""
        ttl = 0.5
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                (
                    "import sys, time; sys.path.insert(0, %r); "
                    "from repro.experiments.dispatch import ClaimLedger; "
                    "ledger = ClaimLedger(%r, 'doomed-peer', %r); "
                    "assert ledger.try_claim('cell0'); "
                    "ledger.start_heartbeat(); "
                    "print('claimed', flush=True); "
                    "time.sleep(60)"
                )
                % (str(Path(__file__).resolve().parents[1] / "src"), str(tmp_path), ttl),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "claimed"
            survivor = ClaimLedger(tmp_path, "survivor", ttl=ttl)
            # While the peer heartbeats, the claim must hold.
            assert not survivor.try_claim("cell0")
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 10 * ttl
            stolen = False
            while time.monotonic() < deadline:
                if survivor.try_claim("cell0"):
                    stolen = True
                    break
                time.sleep(ttl / 4)
            assert stolen, "lease of SIGKILL'd peer was never stolen"
            assert survivor.stolen == 1
            survivor.release_all()
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()


class TestFaultStats:
    def test_merge_adds_matching_counters_only(self):
        stats = FaultStats(retries=1)
        stats.merge({"retries": 2, "clients_cut": 3, "not_a_counter": 9})
        assert stats.retries == 3
        assert stats.clients_cut == 3
        assert not hasattr(stats, "not_a_counter")

    def test_any_and_to_dict(self):
        stats = FaultStats()
        assert not stats.any()
        stats.note_injected("crash")
        assert stats.any()
        assert stats.to_dict()["crashes_injected"] == 1
