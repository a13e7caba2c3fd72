"""Tests for multi-host grid dispatch: claim leases, static sharding, and the
grid-level dataset store."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import GridRunner, config_hash, expand_grid, run_experiment, smoke_scale
from repro.experiments.dispatch import (
    ClaimLedger,
    DatasetBroker,
    claim_path,
    dataset_key,
    default_runner_id,
    parse_shard,
    read_claim,
    resolve_task,
    shard_of,
)


def _tiny_grid(**overrides):
    return expand_grid(
        attacks=("lie",),
        defenses=overrides.pop("defenses", ("mkrum", "median")),
        betas=overrides.pop("betas", (0.5, None)),
        scale=smoke_scale,
        num_rounds=overrides.pop("num_rounds", 1),
        **overrides,
    )


# ----------------------------------------------------------------------
# Claim leases
# ----------------------------------------------------------------------
class TestClaimLedger:
    def test_exclusive_acquisition(self, tmp_path):
        a = ClaimLedger(tmp_path, "runner-a", ttl=60)
        b = ClaimLedger(tmp_path, "runner-b", ttl=60)
        assert a.try_claim("cell0")
        assert not b.try_claim("cell0")
        assert b.try_claim("cell1")
        assert a.acquired == 1 and b.acquired == 1
        assert a.stolen == b.stolen == 0

    def test_reentrant_for_the_owner(self, tmp_path):
        ledger = ClaimLedger(tmp_path, "runner-a", ttl=60)
        assert ledger.try_claim("cell0")
        assert ledger.try_claim("cell0")

    def test_release_frees_the_cell(self, tmp_path):
        a = ClaimLedger(tmp_path, "runner-a", ttl=60)
        b = ClaimLedger(tmp_path, "runner-b", ttl=60)
        assert a.try_claim("cell0")
        a.release("cell0")
        assert not claim_path(tmp_path, "cell0").exists()
        assert b.try_claim("cell0")

    def test_stale_lease_is_stolen(self, tmp_path):
        a = ClaimLedger(tmp_path, "runner-a", ttl=0.05)
        b = ClaimLedger(tmp_path, "runner-b", ttl=0.05)
        assert a.try_claim("cell0")
        time.sleep(0.1)
        assert b.try_claim("cell0")
        assert b.stolen == 1 and b.expired == 1
        body = read_claim(claim_path(tmp_path, "cell0"))
        assert body["owner"] == "runner-b"

    def test_refresh_keeps_the_lease_fresh(self, tmp_path):
        a = ClaimLedger(tmp_path, "runner-a", ttl=0.3)
        b = ClaimLedger(tmp_path, "runner-b", ttl=0.3)
        assert a.try_claim("cell0")
        for _ in range(4):
            time.sleep(0.1)
            a.refresh()
        assert not b.try_claim("cell0")
        assert a.lost == 0

    def test_losing_a_stolen_lease_is_detected(self, tmp_path):
        a = ClaimLedger(tmp_path, "runner-a", ttl=0.05)
        b = ClaimLedger(tmp_path, "runner-b", ttl=0.05)
        assert a.try_claim("cell0")
        time.sleep(0.1)
        assert b.try_claim("cell0")
        a.refresh()
        assert a.lost == 1
        assert "cell0" not in a.held
        # releasing must not delete the new owner's lease
        a.release("cell0")
        assert read_claim(claim_path(tmp_path, "cell0"))["owner"] == "runner-b"

    def test_release_all(self, tmp_path):
        ledger = ClaimLedger(tmp_path, "runner-a", ttl=60)
        for cell in ("cell0", "cell1", "cell2"):
            assert ledger.try_claim(cell)
        ledger.release_all()
        assert not sorted(Path(tmp_path).glob("*.claim"))

    def test_newborn_empty_lease_reads_as_fresh(self, tmp_path):
        """Exclusive create and body write are two syscalls; a peer reading
        in between must see a *fresh* lease (mtime heartbeat), not a stale
        one it may steal."""
        path = claim_path(tmp_path, "cell0")
        path.touch()
        body = read_claim(path)
        assert body["owner"] is None
        assert time.time() - body["heartbeat"] < 5.0
        b = ClaimLedger(tmp_path, "runner-b", ttl=60)
        assert not b.try_claim("cell0")

    def test_missing_claim_reads_as_none(self, tmp_path):
        assert read_claim(claim_path(tmp_path, "nope")) is None

    def test_background_heartbeat_protects_a_long_cell(self, tmp_path):
        """A serial runner cannot refresh while a cell executes in its
        own process; the daemon heartbeat must keep the lease fresh past
        the TTL regardless."""
        owner = ClaimLedger(tmp_path, "runner-a", ttl=0.2)
        peer = ClaimLedger(tmp_path, "runner-b", ttl=0.2)
        assert owner.try_claim("cell0")
        owner.start_heartbeat()
        try:
            time.sleep(0.5)  # "cell execution" well past the TTL
            assert not peer.try_claim("cell0")
            assert owner.lost == 0
        finally:
            owner.stop_heartbeat()
        owner.release_all()

    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="TTL"):
            ClaimLedger(tmp_path, "runner-a", ttl=0)

    def test_default_runner_ids_are_unique(self):
        assert default_runner_id() != default_runner_id()


# ----------------------------------------------------------------------
# Static sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0/0", "1", "a/b", "1/2/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shard_of_is_deterministic_and_in_range(self):
        hashes = [config_hash(config) for _, config in _tiny_grid()]
        for num_shards in (1, 2, 3):
            shards = [shard_of(h, num_shards) for h in hashes]
            assert shards == [shard_of(h, num_shards) for h in hashes]
            assert all(0 <= s < num_shards for s in shards)

    def test_shards_partition_the_grid(self, tmp_path):
        grid = _tiny_grid()
        runners = [
            GridRunner(cache_dir=tmp_path / f"cache{i}", shard=(i, 2))
            for i in range(2)
        ]
        results = [runner.run(grid) for runner in runners]
        label_sets = [{label for label, _ in chunk} for chunk in results]
        assert not label_sets[0] & label_sets[1]
        assert label_sets[0] | label_sets[1] == {label for label, _ in grid}
        executed = [runner.last_stats.executed for runner in runners]
        skipped = [runner.last_stats.cells_skipped_shard for runner in runners]
        assert sum(executed) == len(grid)
        assert executed[0] + skipped[0] == len(grid)
        assert executed[1] + skipped[1] == len(grid)

    def test_string_shard_spec_accepted(self, tmp_path):
        grid = _tiny_grid()
        runner = GridRunner(cache_dir=tmp_path, shard="0/2")
        runner.run(grid)
        stats = runner.last_stats
        assert stats.executed + stats.cells_skipped_shard == len(grid)


# ----------------------------------------------------------------------
# Claim-aware GridRunner
# ----------------------------------------------------------------------
class TestClaimAwareGridRunner:
    def test_claim_ttl_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            GridRunner(claim_ttl=30)

    def test_peer_held_cells_are_skipped_without_wait(self, tmp_path):
        grid = _tiny_grid()
        peer = ClaimLedger(tmp_path, "peer", ttl=60)
        assert peer.try_claim(config_hash(grid[0][1]))
        runner = GridRunner(
            cache_dir=tmp_path, claim_ttl=60, wait_for_peers=False
        )
        results = runner.run(grid)
        stats = runner.last_stats
        assert stats.executed == len(grid) - 1
        assert stats.cells_skipped_claimed == 1
        assert grid[0][0] not in {label for label, _ in results}
        # our leases were all released; only the peer's remains
        assert sorted(Path(tmp_path).glob("*.claim")) == [
            claim_path(tmp_path, config_hash(grid[0][1]))
        ]

    def test_stale_peer_lease_is_stolen_and_cell_runs(self, tmp_path):
        grid = _tiny_grid()
        chash = config_hash(grid[0][1])
        path = claim_path(tmp_path, chash)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"owner": "dead-peer"}))
        stale = time.time() - 100
        os.utime(path, (stale, stale))
        runner = GridRunner(cache_dir=tmp_path, claim_ttl=5)
        results = runner.run(grid)
        stats = runner.last_stats
        assert stats.executed == len(grid)
        assert stats.claims_stolen == 1 and stats.claims_expired == 1
        assert len(results) == len(grid)
        assert not sorted(Path(tmp_path).glob("*.claim"))

    def test_awaited_baseline_is_stolen_from_a_dead_peer(self, tmp_path):
        """A baseline a peer claimed but never finishes: the runner awaits,
        the lease goes stale, and the runner takes over rather than hang."""
        grid = _tiny_grid(betas=(0.5,))  # one baseline for the whole grid
        clean = grid[0][1].clean_variant()
        peer = ClaimLedger(tmp_path, "dead-peer", ttl=0.4)
        assert peer.try_claim(config_hash(clean))
        runner = GridRunner(cache_dir=tmp_path, claim_ttl=0.4)
        results = runner.run(grid)
        stats = runner.last_stats
        assert stats.baselines_awaited == 1
        assert stats.claims_stolen >= 1
        assert stats.baselines_executed == 1
        assert len(results) == len(grid)
        for _, result in results:
            assert result.asr is not None

    def test_no_wait_skips_cells_behind_a_peer_baseline(self, tmp_path):
        """--no-wait must not block on a peer's in-flight baseline either:
        the dependent cells are released and skipped, not awaited."""
        grid = _tiny_grid(betas=(0.5,))  # one baseline for the whole grid
        clean = grid[0][1].clean_variant()
        peer = ClaimLedger(tmp_path, "peer", ttl=60)
        assert peer.try_claim(config_hash(clean))
        runner = GridRunner(
            cache_dir=tmp_path, claim_ttl=60, wait_for_peers=False
        )
        started = time.time()
        results = runner.run(grid)
        assert time.time() - started < 30  # returned without polling the TTL out
        stats = runner.last_stats
        assert stats.baselines_awaited == 1
        assert stats.executed == 0 and stats.failed == 0
        assert stats.cells_skipped_claimed == len(grid)
        assert results == []
        # the dependent cells' leases were given back for the peer/a re-run
        assert sorted(Path(tmp_path).glob("*.claim")) == [
            claim_path(tmp_path, config_hash(clean))
        ]
        peer.release_all()

    def test_transient_unreadable_claim_is_not_abandoned(self, tmp_path):
        """A held lease whose body reads as garbage (transient I/O or
        truncation) stays held — and release still removes it on the
        strength of our own bookkeeping."""
        ledger = ClaimLedger(tmp_path, "runner-a", ttl=60)
        assert ledger.try_claim("cell0")
        path = claim_path(tmp_path, "cell0")
        path.write_text("{garbage")  # simulate a torn read
        ledger.refresh()
        assert ledger.lost == 0 and "cell0" in ledger.held
        ledger.release("cell0")
        assert not path.exists()

    def test_wait_for_peers_returns_peer_results(self, tmp_path):
        """A cell a live peer holds is awaited; once the peer's artifact
        lands, it comes back as a cache hit and the grid is complete."""
        import threading

        grid = _tiny_grid()
        target_label, target_config = grid[0]
        peer = ClaimLedger(tmp_path, "peer", ttl=60)
        assert peer.try_claim(config_hash(target_config))

        def finish_peer_cell():
            time.sleep(0.5)
            solo = GridRunner(cache_dir=tmp_path / "peer-scratch")
            (label, result), = solo.run([(target_label, target_config)])
            # publish the artifact into the shared dir the way a peer would
            from repro.experiments.io import atomic_write_json, result_to_dict

            atomic_write_json(
                Path(tmp_path) / f"{config_hash(target_config)}.json",
                result_to_dict(label, result),
            )
            peer.release(config_hash(target_config))

        thread = threading.Thread(target=finish_peer_cell)
        thread.start()
        try:
            runner = GridRunner(cache_dir=tmp_path, claim_ttl=60)
            results = runner.run(grid)
        finally:
            thread.join()
        stats = runner.last_stats
        assert stats.executed == len(grid) - 1
        assert stats.cache_hits == 1
        assert {label for label, _ in results} == {label for label, _ in grid}


@pytest.mark.slow
class TestTwoRunnersShareOneCacheDir:
    _DRIVER = r"""
import json, sys, dataclasses
from repro.experiments import GridRunner, expand_grid, smoke_scale
grid = expand_grid(attacks=("lie",), defenses=("fedavg", "mkrum", "median", "krum"),
                   betas=(0.5, None), scale=smoke_scale, num_rounds=1)
runner = GridRunner(cache_dir=sys.argv[1], claim_ttl=30, runner_id=sys.argv[2])
results = runner.run(grid)
print(json.dumps({"stats": dataclasses.asdict(runner.last_stats),
                  "labels": [label for label, _ in results],
                  "acc": {label: result.max_accuracy for label, result in results},
                  "records": {label: [r.accuracy for r in result.records]
                              for label, result in results}}))
"""

    def test_disjoint_claims_cover_the_grid_bit_identically(self, tmp_path):
        """Acceptance: two runner processes on one cache dir execute every
        cell exactly once between them, cover the whole >= 8-cell grid, and
        produce bit-identical results to a single-runner sweep."""
        cells = 8
        shared = tmp_path / "shared-cache"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self._DRIVER, str(shared), name],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for name in ("runner-a", "runner-b")
        ]
        outs = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=600)
            assert proc.returncode == 0, stderr
            outs.append(json.loads(stdout.strip().splitlines()[-1]))
        stats_a, stats_b = outs[0]["stats"], outs[1]["stats"]

        # every cell executed exactly once, by exactly one runner
        assert stats_a["executed"] + stats_b["executed"] == cells
        assert stats_a["executed"] + stats_a["cache_hits"] == cells
        assert stats_b["executed"] + stats_b["cache_hits"] == cells
        assert stats_a["baselines_executed"] + stats_b["baselines_executed"] == 2
        # per-host dataset publication count: at most one per runner for the
        # one dataset, and exactly one for a runner that executed anything.
        # A runner that finds every cell already claimed or cached before it
        # starts publishes nothing.
        for stats in (stats_a, stats_b):
            assert stats["dataset_publications"] <= 1
            if stats["executed"] + stats["baselines_executed"] > 0:
                assert stats["dataset_publications"] == 1
        # both runners return the complete grid
        assert outs[0]["labels"] == outs[1]["labels"]
        assert len(outs[0]["labels"]) == cells
        assert outs[0]["acc"] == outs[1]["acc"]
        assert outs[0]["records"] == outs[1]["records"]
        # the steady state is artifacts only — no leases left behind
        assert len(sorted(shared.glob("*.json"))) == cells + 2
        assert not sorted(shared.glob("*.claim"))

        # bit-identical to a single-runner sweep in a fresh cache dir
        grid = expand_grid(
            attacks=("lie",),
            defenses=("fedavg", "mkrum", "median", "krum"),
            betas=(0.5, None),
            scale=smoke_scale,
            num_rounds=1,
        )
        solo = GridRunner(cache_dir=tmp_path / "solo-cache").run(grid)
        assert {label: result.max_accuracy for label, result in solo} == outs[0]["acc"]
        assert {
            label: [r.accuracy for r in result.records] for label, result in solo
        } == outs[0]["records"]


# ----------------------------------------------------------------------
# Grid-level dataset store
# ----------------------------------------------------------------------
class TestDatasetBroker:
    def test_one_publication_per_distinct_dataset(self, tmp_path):
        grid = _tiny_grid()  # one dataset, four cells
        runner = GridRunner(cache_dir=tmp_path)
        runner.run(grid)
        assert runner.last_stats.dataset_publications == 1

    def test_publication_per_dataset_config(self):
        with DatasetBroker(use_shared_memory=False) as broker:
            configs = [config for _, config in _tiny_grid()]
            configs += [config.with_overrides(dataset_seed=7) for config in configs[:1]]
            broker.publish(configs)
            assert broker.publications == 2

    def test_resolve_task_matches_load_dataset(self):
        from repro.experiments.dispatch import load_task_for
        import numpy as np

        config = _tiny_grid()[0][1]
        with DatasetBroker(use_shared_memory=True) as broker:
            broker.publish([config])
            task = resolve_task(config)
            assert task is not None
            assert resolve_task(config) is task  # memoized per process
            fresh = load_task_for(config)
            assert np.array_equal(task.train.images, fresh.train.images)
            assert np.array_equal(task.train.labels, fresh.train.labels)
            assert np.array_equal(task.test.images, fresh.test.images)
            assert task.spec == fresh.spec
            assert not task.train.images.flags.writeable
        assert resolve_task(config) is None  # closed broker unpublishes

    def test_unpublished_config_resolves_to_none(self):
        assert resolve_task(_tiny_grid()[0][1].with_overrides(dataset_seed=123)) is None

    def test_dataset_key_ignores_non_dataset_fields(self):
        config = _tiny_grid()[0][1]
        assert dataset_key(config) == dataset_key(config.with_overrides(defense="median"))
        assert dataset_key(config) != dataset_key(config.with_overrides(dataset_seed=1))

    def test_shared_dataset_results_bit_identical(self, tmp_path):
        """Cells on the grid's published dataset match runs that load their
        own."""
        grid = _tiny_grid()
        with_store = GridRunner().run(grid)
        assert [label for label, _ in with_store] == [label for label, _ in grid]
        for (_, shared), (_, config) in zip(with_store, grid):
            direct = run_experiment(config)
            assert shared.max_accuracy == direct.max_accuracy
            assert [r.accuracy for r in shared.records] == [
                r.accuracy for r in direct.records
            ]


class TestSimulationStoreCounter:
    def test_process_backend_publishes_once(self):
        from repro.experiments import build_simulation

        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=1)
        with build_simulation(config, policy="process:2") as simulation:
            assert simulation.store_publications == 1

    def test_serial_backend_publishes_nothing(self):
        from repro.experiments import build_simulation

        config = smoke_scale(attack="lie", defense="mkrum", num_rounds=1)
        with build_simulation(config) as simulation:
            assert simulation.store_publications == 0
