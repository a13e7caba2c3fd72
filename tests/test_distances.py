"""Tests for the shared defense distance plane (repro.defenses.distances)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import Bulyan, Krum
from repro.defenses.distances import (
    pairwise_cosine_similarities,
    pairwise_sq_distances,
)
from repro.defenses.krum import krum_scores_from_distances
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.types import DefenseContext, ModelUpdate


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
    """The kernels give bitwise identical matrices in any process."""

    def test_thread_fanout_bit_identical(self):
        """The thread backend is refused; its three-way fan-out now runs on
        three worker processes fed inline (no shared memory) and stays
        bitwise equal to serial."""
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            DispatchPolicy("thread", workers=3)
        matrix = _random_matrix(seed=5)
        serial = pairwise_sq_distances(matrix)
        with DispatchPolicy("process", workers=3, use_shared_memory=False) as policy:
            pooled = policy.map_fn(pairwise_sq_distances, [matrix] * 3)
            assert policy.fanout_calls == 3
        for result in pooled:
            np.testing.assert_array_equal(serial, result)

    def test_process_fanout_bit_identical_and_counts(self):
        matrix = _random_matrix(seed=6)
        serial = pairwise_sq_distances(matrix)
        serial_cos = pairwise_cosine_similarities(matrix)
        with DispatchPolicy("process", workers=2) as policy:
            pooled = policy.map_fn(pairwise_sq_distances, [matrix, matrix])
            pooled_cos = policy.map_fn(pairwise_cosine_similarities, [matrix, matrix])
            assert policy.fanout_calls == 4  # every call ran in a worker
        for result in pooled:
            np.testing.assert_array_equal(serial, result)
        for result in pooled_cos:
            np.testing.assert_array_equal(serial_cos, result)


class TestRepeatedCalls:
    """Repeated distance-plane calls carry nothing between them: every call
    equals a bare recomputation, a changed row moves only its own pairs,
    and each cosine epsilon gives its own stable result."""

    def test_repeat_calls_are_bitwise_identical(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 64)).astype(np.float32)
        first = pairwise_sq_distances(matrix)
        second = pairwise_sq_distances(matrix)
        assert first.shape == (6, 6)
        assert np.array_equal(first, second)
        assert np.array_equal(first, pairwise_sq_distances(matrix))

    def test_changed_row_moves_only_its_own_pairs(self):
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

    def test_krum_bulyan_selections_stable_across_repeat_calls(self):
        rng = np.random.default_rng(3)
        updates = [
            ModelUpdate(client_id=i, parameters=rng.normal(size=256).astype(np.float32), num_samples=10)
            for i in range(8)
        ]
        policy = DispatchPolicy()

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
            first = defense.aggregate(list(updates), context())
            second = defense.aggregate(list(updates), context())
            assert first.accepted_client_ids == second.accepted_client_ids
            assert np.array_equal(first.new_params, second.new_params)
        krum = Krum().aggregate(list(updates), context())
        assert krum.scores == {i: float(score) for i, score in enumerate(scores)}
        assert krum.accepted_client_ids == [int(np.argmin(scores))]

    def test_cosine_epsilon_results_differ_and_repeat_exactly(self):
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
