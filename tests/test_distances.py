"""Tests for the shared defense distance plane (repro.defenses.distances)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.distances import (
    COSINE_BLOCK_FANOUT,
    DISTANCE_BLOCK_FANOUT,
    cosine_block,
    distance_block,
    pairwise_cosine_similarities,
    pairwise_sq_distances,
)
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.executor import (
    ParallelExecutor,
    SerialExecutor,
    ThreadedExecutor,
    pooled_fanout_ready,
    resolve_fanout_fn,
)


def _random_matrix(n=8, dim=192, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)).astype(dtype)


def _brute_force_sq_distances(matrix):
    m64 = np.asarray(matrix, dtype=np.float64)
    diff = m64[:, None, :] - m64[None, :, :]
    return (diff ** 2).sum(axis=2)


class TestPairwiseSqDistances:
    def test_matches_float64_brute_force(self):
        matrix = _random_matrix()
        distances = pairwise_sq_distances(matrix)
        np.testing.assert_allclose(distances, _brute_force_sq_distances(matrix), rtol=1e-12)
        assert distances.dtype == np.float64

    def test_diagonal_is_exactly_zero(self):
        distances = pairwise_sq_distances(_random_matrix())
        np.testing.assert_array_equal(np.diag(distances), np.zeros(8))

    def test_symmetric(self):
        distances = pairwise_sq_distances(_random_matrix())
        np.testing.assert_array_equal(distances, distances.T)

    def test_bitwise_invariant_to_block_rows(self):
        matrix = _random_matrix(n=7, dim=130)
        full = pairwise_sq_distances(matrix, block_rows=7)
        for rows in (1, 2, 3, 5):
            np.testing.assert_array_equal(
                pairwise_sq_distances(matrix, block_rows=rows), full
            )

    def test_float64_input_accepted(self):
        matrix = _random_matrix(dtype=np.float64)
        np.testing.assert_allclose(
            pairwise_sq_distances(matrix), _brute_force_sq_distances(matrix), rtol=1e-12
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pairwise_sq_distances(np.zeros(5))

    def test_empty_matrix_gives_empty_result(self):
        assert pairwise_sq_distances(np.empty((0, 7))).shape == (0, 0)
        assert pairwise_cosine_similarities(np.empty((0, 7))).shape == (0, 0)

    def test_bitwise_invariant_to_right_row_tiling(self, monkeypatch):
        """Shrinking the temp budget forces the right-hand row tiling of
        ``_exact_distance_block``; the bits must not change."""
        import repro.defenses.distances as distances_module

        matrix = _random_matrix(n=9, dim=70, seed=9)
        full = pairwise_sq_distances(matrix)
        monkeypatch.setattr(distances_module, "_TARGET_BLOCK_ELEMENTS", 64)
        tiled = pairwise_sq_distances(matrix)
        np.testing.assert_array_equal(tiled, full)

    def test_near_duplicate_rows_keep_relative_precision(self):
        """The scenario that broke the Gram trick: tiny distances at large norm."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal(2048)
        base *= 100.0 / np.linalg.norm(base)
        perturbations = 1e-3 * rng.standard_normal((4, 2048))
        matrix = (base[None, :] + perturbations).astype(np.float32)
        distances = pairwise_sq_distances(matrix)
        truth = _brute_force_sq_distances(matrix)
        off_diagonal = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(
            distances[off_diagonal], truth[off_diagonal], rtol=1e-10
        )
        # All pairwise distances are ~1e-6; none may collapse to zero.
        assert distances[off_diagonal].min() > 0.0


class TestPairwiseCosineSimilarities:
    def _direct(self, matrix, epsilon=0.0):
        m64 = np.asarray(matrix, dtype=np.float64)
        norms = np.sqrt((m64 ** 2).sum(axis=1)) + epsilon
        normalized = m64 / norms[:, None]
        return normalized @ normalized.T

    def test_matches_direct_computation(self):
        matrix = _random_matrix(seed=1)
        similarity = pairwise_cosine_similarities(matrix, epsilon=1e-5)
        np.testing.assert_allclose(similarity, self._direct(matrix, 1e-5), rtol=1e-12)
        assert similarity.dtype == np.float64

    def test_unit_diagonal_without_epsilon(self):
        similarity = pairwise_cosine_similarities(_random_matrix(seed=2))
        np.testing.assert_allclose(np.diag(similarity), np.ones(8), rtol=1e-12)

    def test_epsilon_guards_zero_rows(self):
        matrix = np.zeros((3, 16), dtype=np.float32)
        similarity = pairwise_cosine_similarities(matrix, epsilon=1e-5)
        assert np.all(np.isfinite(similarity))
        np.testing.assert_array_equal(similarity, np.zeros((3, 3)))

    def test_bitwise_invariant_to_block_rows(self):
        matrix = _random_matrix(n=6, dim=90, seed=4)
        full = pairwise_cosine_similarities(matrix, epsilon=1e-5, block_rows=6)
        for rows in (1, 2, 4):
            np.testing.assert_array_equal(
                pairwise_cosine_similarities(matrix, epsilon=1e-5, block_rows=rows), full
            )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pairwise_cosine_similarities(np.zeros((2, 2, 2)))


class TestFanoutParity:
    """Every backend must produce bitwise identical matrices."""

    def test_registered_names_resolve(self):
        assert resolve_fanout_fn(DISTANCE_BLOCK_FANOUT) is distance_block
        assert resolve_fanout_fn(COSINE_BLOCK_FANOUT) is cosine_block

    def test_thread_fanout_bit_identical(self):
        matrix = _random_matrix(seed=5)
        serial = pairwise_sq_distances(matrix)
        with DispatchPolicy.fixed("thread", workers=3) as policy:
            threaded = pairwise_sq_distances(matrix, dispatch=policy)
        np.testing.assert_array_equal(serial, threaded)

    def test_process_fanout_bit_identical_and_counts(self):
        matrix = _random_matrix(seed=6)
        serial = pairwise_sq_distances(matrix)
        serial_cos = pairwise_cosine_similarities(matrix, epsilon=1e-5)
        with DispatchPolicy.fixed("process", workers=2) as policy:
            pooled = pairwise_sq_distances(matrix, dispatch=policy)
            counters = policy.counter_snapshot()
            assert counters["process_fanout_calls"] > 1  # row blocks went through the pool
            assert counters["process_published_stores"] == 1  # the matrix shipped once
            pooled_cos = pairwise_cosine_similarities(
                matrix, epsilon=1e-5, dispatch=policy
            )
            assert policy.counter_snapshot()["process_published_stores"] == 2
        np.testing.assert_array_equal(serial, pooled)
        np.testing.assert_array_equal(serial_cos, pooled_cos)

    def test_process_without_shared_memory_falls_back_to_serial(self):
        """Inlining the matrix into every block envelope would re-ship it
        once per block, so the shm opt-out must compute serially instead."""
        matrix = _random_matrix(seed=7)
        serial = pairwise_sq_distances(matrix)
        policy = DispatchPolicy.fixed("process", workers=2, use_shared_memory=False)
        with policy:
            result = pairwise_sq_distances(matrix, dispatch=policy)
            counters = policy.counter_snapshot()
            assert counters["process"] == 1  # decided for the pool ...
            assert counters["process_fanout_calls"] == 0  # ... but ran serially
            assert counters["process_published_stores"] == 0
        np.testing.assert_array_equal(serial, result)

    def test_single_block_skips_the_pool(self):
        matrix = _random_matrix(n=3, seed=8)
        with DispatchPolicy.fixed("process", workers=2) as policy:
            result = pairwise_sq_distances(matrix, dispatch=policy, block_rows=3)
            counters = policy.counter_snapshot()
            assert counters["serial"] == 1
            assert counters.get("process_fanout_calls", 0) == 0
        np.testing.assert_array_equal(result, pairwise_sq_distances(matrix))


class TestPooledFanoutReady:
    def test_none_executor(self):
        assert not pooled_fanout_ready(None)

    def test_serial_backend(self):
        assert not pooled_fanout_ready(SerialExecutor())

    def test_thread_backend(self):
        assert pooled_fanout_ready(ThreadedExecutor(workers=1))
        assert pooled_fanout_ready(ThreadedExecutor(workers=1), payload_by_ref=False)

    def test_process_backend_requires_by_ref_payloads(self):
        executor = ParallelExecutor(workers=1)
        assert pooled_fanout_ready(executor)
        assert not pooled_fanout_ready(executor, payload_by_ref=False)
