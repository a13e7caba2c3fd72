"""Tests for client-task dispatch: payloads, shm data plane, determinism."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments import build_simulation, smoke_scale
from repro.fl.executor import (
    ShardRef,
    SharedArrayRef,
    SharedArrayStore,
    SharedParamsLease,
    SharedParamsRef,
    resolve_shared_array,
    run_client_task,
)
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.simulation import FederatedSimulation
from repro.fl.types import LocalTrainingConfig
from repro.models import ClassifierFactory


def _records_signature(result):
    """Everything a round record contributes to the paper's metrics."""
    return [
        (
            record.round_number,
            tuple(record.selected_client_ids),
            tuple(record.selected_malicious_ids),
            None
            if record.accepted_client_ids is None
            else tuple(record.accepted_client_ids),
            record.accuracy,
            record.test_loss,
            record.num_malicious_passed,
        )
        for record in result.records
    ]


def _run_with(policy, num_rounds=2, **config_overrides):
    """Run a smoke config; returns the result and the policy's counters.

    ``counters["pooled"]`` records whether the run built a worker pool.
    """
    config_overrides = {"attack": "lie", "defense": "mkrum", **config_overrides}
    config = smoke_scale(num_rounds=num_rounds, **config_overrides)
    with DispatchPolicy.coerce(policy) as policy:
        with build_simulation(config, policy=policy) as simulation:
            result = simulation.run(num_rounds)
        return result, {**policy.counter_snapshot(), "pooled": policy._pool is not None}


def _square(x):
    return x * x


class TestBuildExecutor:
    """A policy spec names the backend; a pooled backend builds its one pool
    on first use."""

    @staticmethod
    def _pool_of(spec):
        policy = DispatchPolicy.coerce(spec)
        policy.map_fn(_square, [1, 2])
        return policy, policy._pool

    def test_none_gives_serial(self):
        policy, pool = self._pool_of(None)
        assert policy.backend == "serial" and pool is None
        policy.close()

    def test_names_resolve(self):
        policy, pool = self._pool_of("serial")
        assert pool is None
        policy, pool = self._pool_of("process:2")
        try:
            assert isinstance(pool, ProcessPoolExecutor)
            assert policy.workers == 2 and pool._max_workers == 2
        finally:
            policy.close()

    def test_instance_passthrough(self):
        with DispatchPolicy("process", workers=1) as policy:
            same, pool = self._pool_of(policy)
            assert same is policy
            assert self._pool_of(policy)[1] is pool

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="gpu-cluster"):
            DispatchPolicy.coerce("gpu-cluster")


class TestTaskPayload:
    def test_task_is_picklable(self, tiny_task):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        client = next(iter(simulation.benign_clients.values()))
        task = client.make_task(simulation.server.distribute(), round_number=0)
        restored = pickle.loads(pickle.dumps(task))
        assert restored.client_id == task.client_id
        np.testing.assert_array_equal(restored.global_params, task.global_params)

    def test_run_client_task_advances_rng_state(self):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        client = next(iter(simulation.benign_clients.values()))
        params = simulation.server.distribute()
        before = client.make_task(params, 0).rng_state
        result = run_client_task(client.make_task(params, 0))
        assert result.rng_state != before
        client.consume_result(result)
        assert client.make_task(params, 1).rng_state == result.rng_state

    def test_consume_result_rejects_foreign_client(self):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        clients = list(simulation.benign_clients.values())
        params = simulation.server.distribute()
        result = run_client_task(clients[0].make_task(params, 0))
        with pytest.raises(ValueError):
            clients[1].consume_result(result)


class TestSharedMemoryBroadcast:
    """The per-round shared-memory parameter publication."""

    def test_lease_roundtrips_vector(self):
        vector = np.arange(64, dtype=np.float32)
        lease = SharedParamsLease(vector)
        try:
            from repro.fl.executor import _attach_shared_params

            view = _attach_shared_params(lease.ref)
            np.testing.assert_array_equal(view, vector)
            assert not view.flags.writeable
        finally:
            lease.release()

    def test_lease_ref_is_picklable(self):
        lease = SharedParamsLease(np.ones(8, dtype=np.float32))
        try:
            restored = pickle.loads(pickle.dumps(lease.ref))
            assert restored == lease.ref
        finally:
            lease.release()

    def test_release_is_idempotent(self):
        # repro: allow[SHM001] release idempotence is the behavior under test
        lease = SharedParamsLease(np.ones(4, dtype=np.float32))
        lease.release()
        lease.release()

    def test_task_resolution_prefers_inline_params(self, tiny_task):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        client = next(iter(simulation.benign_clients.values()))
        task = client.make_task(simulation.server.distribute(), round_number=0)
        np.testing.assert_array_equal(task.resolve_global_params(), task.global_params)

    def test_task_without_params_or_ref_raises(self, tiny_task):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        client = next(iter(simulation.benign_clients.values()))
        task = client.make_task(simulation.server.distribute(), round_number=0)
        task.global_params = None
        with pytest.raises(ValueError):
            task.resolve_global_params()

    def test_broadcast_vector_recognises_equal_vectors(self, tiny_task):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        clients = list(simulation.benign_clients.values())[:2]
        params = simulation.server.distribute()
        tasks = [client.make_task(params, 0) for client in clients]
        policy = DispatchPolicy("process", workers=1)
        assert policy._broadcast_vector(tasks) is params
        # An equal-valued copy must not silently disable the shm fast path ...
        tasks[1].global_params = params.copy()
        assert policy._broadcast_vector(tasks) is params
        # ... nor must a view into the same buffer ...
        tasks[1].global_params = params[:]
        assert policy._broadcast_vector(tasks) is params
        # ... but genuinely different vectors cannot be broadcast,
        different = params.copy()
        different[0] += 1.0
        tasks[1].global_params = different
        assert policy._broadcast_vector(tasks) is None
        # and opting out of shared memory always wins.
        tasks[1].global_params = params
        unshared = DispatchPolicy("process", workers=1, use_shared_memory=False)
        assert unshared._broadcast_vector(tasks) is None


class TestSharedArrayStore:
    """The once-per-simulation multi-array shard store."""

    def test_roundtrips_named_arrays(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a/images": rng.standard_normal((5, 1, 4, 4)).astype(np.float32),
            "a/labels": rng.integers(0, 10, size=5).astype(np.int64),
            "b/images": rng.standard_normal((3, 1, 4, 4)).astype(np.float32),
        }
        with SharedArrayStore(arrays) as store:
            assert set(store.refs) == set(arrays)
            for name, array in arrays.items():
                view = resolve_shared_array(store.refs[name])
                np.testing.assert_array_equal(view, array)
                assert view.dtype == array.dtype
                assert not view.flags.writeable

    def test_refs_are_picklable(self):
        with SharedArrayStore({"x": np.arange(6).reshape(2, 3)}) as store:
            restored = pickle.loads(pickle.dumps(store.refs["x"]))
            assert restored == store.refs["x"]
            np.testing.assert_array_equal(
                resolve_shared_array(restored), np.arange(6).reshape(2, 3)
            )

    def test_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        # repro: allow[SHM001] explicit close/unlink is the behavior under test
        store = SharedArrayStore({"x": np.ones(4, dtype=np.float32)})
        name = store.name
        store.close()
        store.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_del_safety_net_unlinks_segment(self):
        from multiprocessing import shared_memory

        # repro: allow[SHM001] the __del__ safety net is the behavior under test
        store = SharedArrayStore({"x": np.ones(4, dtype=np.float32)})
        name = store.name
        del store
        import gc

        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_lease_is_context_manager(self):
        from multiprocessing import shared_memory

        from repro.fl.executor import _attach_shared_params

        vector = np.arange(16, dtype=np.float32)
        with SharedParamsLease(vector) as lease:
            name = lease.ref.name
            np.testing.assert_array_equal(_attach_shared_params(lease.ref), vector)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_shard_ref_resolves_both_arrays(self):
        images = np.full((2, 1, 3, 3), 7.0, dtype=np.float32)
        labels = np.array([1, 2], dtype=np.int64)
        with SharedArrayStore({"i": images, "l": labels}) as store:
            ref = ShardRef(images=store.refs["i"], labels=store.refs["l"])
            got_images, got_labels = ref.resolve()
            np.testing.assert_array_equal(got_images, images)
            np.testing.assert_array_equal(got_labels, labels)

    def test_persistent_ref_survives_param_round_attaches(self):
        """Per-round param segments must not evict the shard store mapping."""
        images = np.arange(8, dtype=np.float32)
        with SharedArrayStore({"i": images}, persistent=True) as store:
            first = resolve_shared_array(store.refs["i"])
            for _ in range(3):  # three "rounds" of parameter leases
                with SharedParamsLease(np.ones(4, dtype=np.float32)) as lease:
                    from repro.fl.executor import _attach_shared_params

                    _attach_shared_params(lease.ref)
            again = resolve_shared_array(store.refs["i"])
            np.testing.assert_array_equal(again, images)
            assert np.shares_memory(first, again)


class TestMapFn:
    """DispatchPolicy.map_fn: order-preserving fan-out of module-level fns."""

    def test_serial_and_thread_map_fn_run_module_level_fns(self):
        # Serial declines: the caller runs its own loop.
        assert DispatchPolicy().map_fn(_square, [1, 2, 3]) is None
        # The thread backend is gone; a one-worker process pool takes its place.
        with pytest.raises(ValueError, match="expected 'serial' or 'process"):
            DispatchPolicy.coerce("thread:2")
        with DispatchPolicy("process", workers=1) as policy:
            assert policy.map_fn(_square, [1, 2, 3]) == [1, 4, 9]

    def test_process_map_fn_runs_module_level_fns_on_the_pool(self):
        with DispatchPolicy("process", workers=2) as policy:
            assert policy.map_fn(_square, list(range(6))) == [x * x for x in range(6)]
            assert policy.fanout_calls == 6

    def test_process_map_fn_rejects_closures(self):
        """A closure cannot be pickled by name; the pool survives the error."""
        captured = 3
        with DispatchPolicy("process", workers=2) as policy:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                policy.map_fn(lambda x: x + captured, [1, 2])
            assert policy.fanout_calls == 0
            assert policy.map_fn(_square, [4, 5]) == [16, 25]


class TestShardStoreWiring:
    """The simulation publishes shards once and tasks reference them."""

    def _process_simulation(self, **overrides):
        config = smoke_scale(num_rounds=1, **overrides)
        return build_simulation(config, policy="process:2")

    def test_process_tasks_carry_shard_refs_not_arrays(self):
        simulation = self._process_simulation()
        try:
            for client in simulation.benign_clients.values():
                assert client.shard_ref is not None
                task = client.make_task(simulation.server.distribute(), 0)
                assert task.images is None and task.labels is None
                assert task.shard_ref is not None
                images, labels = task.resolve_arrays()
                expected_images, expected_labels = client.dataset.arrays()
                np.testing.assert_array_equal(images, expected_images)
                np.testing.assert_array_equal(labels, expected_labels)
        finally:
            simulation.close()

    def test_process_task_pickle_contains_no_shard_arrays(self):
        """Acceptance: the dispatched payload ships refs, not image tensors."""
        import dataclasses

        simulation = self._process_simulation()
        try:
            client = next(iter(simulation.benign_clients.values()))
            params = simulation.server.distribute()
            task = client.make_task(params, 0)
            with SharedParamsLease(params) as lease:
                dispatched = dataclasses.replace(
                    task, global_params=None, params_ref=lease.ref
                )
                dispatched_bytes = len(pickle.dumps(dispatched))
            client.shard_ref = None
            inline = client.make_task(params, 0)
            inline_bytes = len(pickle.dumps(inline))
            shard_nbytes = sum(a.nbytes for a in client.dataset.arrays())
            # The dispatched task must be smaller than the arrays it no
            # longer carries, and orders of magnitude below the inline task.
            assert dispatched_bytes < 4096
            assert dispatched_bytes < shard_nbytes
            assert inline_bytes > dispatched_bytes + shard_nbytes // 2
        finally:
            simulation.close()

    def test_serial_simulation_keeps_inline_arrays(self):
        config = smoke_scale(num_rounds=1)
        simulation = build_simulation(config)
        try:
            client = next(iter(simulation.benign_clients.values()))
            assert client.shard_ref is None
            task = client.make_task(simulation.server.distribute(), 0)
            assert task.images is not None and task.shard_ref is None
        finally:
            simulation.close()

    def test_shared_memory_opt_out_keeps_inline_arrays(self):
        config = smoke_scale(num_rounds=1)
        policy = DispatchPolicy("process", workers=2, use_shared_memory=False)
        simulation = build_simulation(config, policy=policy)
        try:
            assert simulation._shard_store is None
            client = next(iter(simulation.benign_clients.values()))
            assert client.shard_ref is None
        finally:
            simulation.close()

    def test_close_unlinks_shard_store(self):
        from multiprocessing import shared_memory

        simulation = self._process_simulation()
        name = simulation._shard_store.name
        simulation.close()
        assert simulation._shard_store is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_reference_arrays_published_for_refd(self):
        simulation = self._process_simulation(attack="lie", defense="refd")
        try:
            ref = simulation.server.reference_ref
            assert ref is not None
            images, labels = ref.resolve()
            expected_images, expected_labels = simulation.server.reference_dataset.arrays()
            np.testing.assert_array_equal(images, expected_images)
            np.testing.assert_array_equal(labels, expected_labels)
        finally:
            simulation.close()


class TestDeterminism:
    """Same seed ⇒ bit-identical records and parameters across backends."""

    def test_serial_twice_is_identical(self):
        (first, _), (second, _) = _run_with(None), _run_with(None)
        assert _records_signature(first) == _records_signature(second)
        np.testing.assert_array_equal(first.final_params, second.final_params)

    def test_threaded_matches_serial(self):
        """The thread backend is refused; the three-worker pooled round it
        ran now runs on three worker processes, bit-identical to serial."""
        with pytest.raises(ValueError, match="expected 'serial' or 'process"):
            DispatchPolicy.coerce("thread:3")
        serial, _ = _run_with(None)
        pooled, counters = _run_with(DispatchPolicy("process", workers=3))
        assert counters["pooled"]  # the process pool ran the rounds
        assert _records_signature(serial) == _records_signature(pooled)
        np.testing.assert_array_equal(serial.final_params, pooled.final_params)

    @pytest.mark.slow
    def test_process_pool_matches_serial_via_shared_memory(self):
        serial, _ = _run_with(None)
        parallel, counters = _run_with(DispatchPolicy("process", workers=4))
        assert counters["shm_rounds"] > 0  # the shm fast path actually ran
        assert _records_signature(serial) == _records_signature(parallel)
        np.testing.assert_array_equal(serial.final_params, parallel.final_params)

    def test_process_refd_fanout_matches_serial(self):
        """Pool fan-out + shard store: REFD rounds are bit-identical."""
        config = smoke_scale(attack="lie", defense="refd", num_rounds=2)
        with build_simulation(config) as simulation:
            serial = simulation.run(2)
            serial_reports = [
                (r.client_id, r.balance, r.confidence, r.score)
                for r in simulation.server.defense.last_reports
            ]
        with DispatchPolicy("process", workers=2) as policy:
            with build_simulation(config, policy=policy) as simulation:
                parallel = simulation.run(2)
                parallel_reports = [
                    (r.client_id, r.balance, r.confidence, r.score)
                    for r in simulation.server.defense.last_reports
                ]
            counters = policy.counter_snapshot()
        assert counters["shm_rounds"] > 0
        assert counters["shard_rounds"] > 0
        assert counters["fanout_calls"] > 0  # D-scores went through the pool
        assert serial_reports == parallel_reports
        assert _records_signature(serial) == _records_signature(parallel)
        np.testing.assert_array_equal(serial.final_params, parallel.final_params)

    def test_process_refd_without_shared_memory_runs_the_fused_loop(self):
        """With no shared-memory reference images REFD scores in its fused
        serial loop (inlining the images into every payload costs more than
        the pool saves) and the rounds stay bit-identical to serial."""
        config = smoke_scale(attack="lie", defense="refd", num_rounds=2)

        def run(policy):
            with build_simulation(config, policy=policy) as simulation:
                result = simulation.run(2)
                reports = [
                    (r.client_id, r.balance, r.confidence, r.score)
                    for r in simulation.server.defense.last_reports
                ]
            return result, reports

        serial, serial_reports = run(None)
        with DispatchPolicy("process", workers=2, use_shared_memory=False) as policy:
            pooled, pooled_reports = run(policy)
            counters = policy.counter_snapshot()
        assert counters["fanout_calls"] == 0
        assert counters["shm_rounds"] == counters["shard_rounds"] == 0
        assert serial_reports == pooled_reports
        assert _records_signature(serial) == _records_signature(pooled)
        np.testing.assert_array_equal(serial.final_params, pooled.final_params)

    def test_process_krum_distance_fanout_matches_serial(self):
        """Krum rounds on a process pool are bit-identical to serial; the
        distance plane itself always runs inline in the parent."""
        serial, _ = _run_with(None, defense="krum")
        parallel, counters = _run_with(DispatchPolicy("process", workers=2), defense="krum")
        assert counters["shm_rounds"] > 0  # client rounds used the pool
        assert counters["fanout_calls"] == 0  # the distance plane did not
        assert _records_signature(serial) == _records_signature(parallel)
        np.testing.assert_array_equal(serial.final_params, parallel.final_params)

    @pytest.mark.slow
    def test_process_bulyan_distance_fanout_matches_serial(self):
        serial, _ = _run_with(None, defense="bulyan")
        parallel, counters = _run_with(DispatchPolicy("process", workers=2), defense="bulyan")
        assert counters["shm_rounds"] > 0
        assert counters["fanout_calls"] == 0
        assert _records_signature(serial) == _records_signature(parallel)
        np.testing.assert_array_equal(serial.final_params, parallel.final_params)

    @pytest.mark.slow
    def test_process_pool_matches_serial_with_inline_params(self):
        serial, _ = _run_with(None)
        policy = DispatchPolicy("process", workers=4, use_shared_memory=False)
        parallel, counters = _run_with(policy)
        assert counters["shm_rounds"] == 0
        assert _records_signature(serial) == _records_signature(parallel)
        np.testing.assert_array_equal(serial.final_params, parallel.final_params)


class TestSimulationWiring:
    def test_executor_name_accepted_by_simulation(self, tiny_task):
        factory = ClassifierFactory(
            architecture="mlp", in_channels=1, image_size=12, num_classes=10, seed=0
        )
        simulation = FederatedSimulation(
            task=tiny_task,
            model_factory=factory,
            num_clients=6,
            clients_per_round=3,
            malicious_fraction=0.0,
            training_config=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.1),
            policy="process:2",
        )
        assert simulation.dispatch.backend == "process"
        result = simulation.run(1)
        simulation.close()
        assert len(result.records) == 1

    def test_classifier_factory_builds_identical_models(self, tiny_task):
        factory = ClassifierFactory.for_task(tiny_task, architecture="mlp", seed=3)
        from repro.nn.serialization import get_flat_params

        np.testing.assert_array_equal(
            get_flat_params(factory()), get_flat_params(factory())
        )
        restored = pickle.loads(pickle.dumps(factory))
        np.testing.assert_array_equal(
            get_flat_params(factory()), get_flat_params(restored())
        )
