"""Tests for the robust aggregation defenses (Krum family, statistics, FoolsGold)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import (
    Bulyan,
    FoolsGold,
    Krum,
    MultiKrum,
    Median,
    NoDefense,
    TrimmedMean,
    available_defenses,
    build_defense,
    iterative_krum_selection,
    krum_neighbourhood_size,
    krum_scores,
    krum_scores_from_distances,
    pairwise_sq_distances,
    pardoned_similarities,
)
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.types import DefenseContext, ModelUpdate


def _context(dim: int = 4, num_malicious: int = 1) -> DefenseContext:
    return DefenseContext(
        round_number=0,
        global_params=np.zeros(dim),
        expected_num_malicious=num_malicious,
        rng=np.random.default_rng(0),
    )


def _cluster_with_outlier(num_benign: int = 8, dim: int = 4, outlier_scale: float = 50.0):
    """Benign updates clustered near 1.0 plus one far-away malicious update."""
    rng = np.random.default_rng(0)
    updates = [
        ModelUpdate(client_id=i, parameters=1.0 + 0.01 * rng.standard_normal(dim), num_samples=10)
        for i in range(num_benign)
    ]
    updates.append(
        ModelUpdate(
            client_id=99,
            parameters=np.full(dim, outlier_scale),
            num_samples=10,
            is_malicious=True,
        )
    )
    return updates


class TestNoDefense:
    def test_fedavg_weighting(self):
        updates = [
            ModelUpdate(client_id=0, parameters=np.zeros(3), num_samples=1),
            ModelUpdate(client_id=1, parameters=np.ones(3), num_samples=3),
        ]
        result = NoDefense().aggregate(updates, _context(3))
        np.testing.assert_allclose(result.new_params, np.full(3, 0.75))
        assert result.accepted_client_ids is None

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError):
            NoDefense().aggregate([], _context())


class TestKrumScores:
    def test_outlier_gets_highest_score(self):
        updates = _cluster_with_outlier()
        matrix = np.stack([u.parameters for u in updates])
        scores = krum_scores(matrix, num_malicious=1)
        assert scores.argmax() == len(updates) - 1

    def test_scores_are_permutation_equivariant(self):
        updates = _cluster_with_outlier()
        matrix = np.stack([u.parameters for u in updates])
        scores = krum_scores(matrix, 1)
        perm = np.random.default_rng(1).permutation(len(updates))
        scores_perm = krum_scores(matrix[perm], 1)
        np.testing.assert_allclose(scores_perm, scores[perm], atol=1e-8)

    def test_two_updates_degenerate_case(self):
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        scores = krum_scores(matrix, 0)
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))


def _legacy_gram_krum_scores(matrix: np.ndarray, num_malicious: int) -> np.ndarray:
    """The pre-fix ``krum_scores``: Gram-trick expansion in the matrix dtype."""
    n = matrix.shape[0]
    if n < 3:
        neighbourhood = max(n - 1, 1)
    else:
        neighbourhood = max(n - num_malicious - 2, 1)
    squared_norms = (matrix ** 2).sum(axis=1)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * matrix @ matrix.T
    np.fill_diagonal(distances, np.inf)
    distances = np.maximum(distances, 0.0)
    sorted_distances = np.sort(distances, axis=1)
    return sorted_distances[:, :neighbourhood].sum(axis=1)


class TestGramCancellationRegression:
    """Near-duplicate float32 updates where the old Gram trick inverts the argmin.

    Converged benign updates sit ~1e-3 apart at ‖x‖ ≈ 1e2, so their true
    squared distances (~1e-6) are *below* the float32 rounding of the
    squared norms (eps32 · ‖x‖² ≈ 1e-3): the Gram expansion cancels to
    noise (clipped to zero), scrambling which client Krum accepts.  The
    distance plane must reproduce the float64 ground truth instead.
    """

    def _near_duplicate_matrix(self):
        rng = np.random.default_rng(7)
        dim = 4096
        base = rng.standard_normal(dim)
        base *= 100.0 / np.linalg.norm(base)
        deltas = []
        for i in range(6):
            if i == 2:
                delta = np.zeros(dim)  # the true centre of the cluster
            elif i == 5:
                delta = rng.standard_normal(dim)
                delta *= 2e-3 / np.linalg.norm(delta)  # mild outlier
            else:
                delta = rng.standard_normal(dim)
                delta *= 5e-4 / np.linalg.norm(delta)
            deltas.append(delta)
        return np.stack([base + delta for delta in deltas]).astype(np.float32)

    def _float64_ground_truth(self, matrix, num_malicious):
        m64 = matrix.astype(np.float64)
        distances = ((m64[:, None, :] - m64[None, :, :]) ** 2).sum(axis=2)
        return krum_scores_from_distances(distances, num_malicious)

    def test_old_gram_scores_invert_the_argmin(self):
        matrix = self._near_duplicate_matrix()
        truth = self._float64_ground_truth(matrix, 1)
        legacy = _legacy_gram_krum_scores(matrix, 1)
        # The cancellation collapses every score to (clipped) noise ...
        assert int(legacy.argmin()) != int(truth.argmin())
        # ... in this scenario literally to all-zero scores.
        np.testing.assert_array_equal(legacy, np.zeros(len(legacy)))

    def test_distance_plane_matches_float64_ground_truth(self):
        matrix = self._near_duplicate_matrix()
        truth = self._float64_ground_truth(matrix, 1)
        scores = krum_scores(matrix, 1)
        np.testing.assert_allclose(scores, truth, rtol=1e-12)
        assert int(scores.argmin()) == int(truth.argmin()) == 2
        assert int(scores.argmax()) == int(truth.argmax()) == 5

    def test_krum_defense_selects_the_cluster_centre(self):
        matrix = self._near_duplicate_matrix()
        updates = [
            ModelUpdate(client_id=i, parameters=row, num_samples=10)
            for i, row in enumerate(matrix)
        ]
        result = Krum().aggregate(updates, _context(matrix.shape[1]))
        assert result.accepted_client_ids == [2]


class TestKrumNeighbourhood:
    def test_paper_rule(self):
        assert krum_neighbourhood_size(10, 2) == 6
        assert krum_neighbourhood_size(6, 1) == 3

    def test_clamped_when_n_shrinks_below_f_plus_3(self):
        assert krum_neighbourhood_size(4, 2) == 1
        assert krum_neighbourhood_size(3, 5) == 1

    def test_degenerate_small_n(self):
        assert krum_neighbourhood_size(2, 0) == 1
        assert krum_neighbourhood_size(1, 0) == 1

    def test_scores_from_distances_rejects_non_square(self):
        with pytest.raises(ValueError):
            krum_scores_from_distances(np.zeros((2, 3)), 0)


class TestKrumAndMultiKrum:
    def test_krum_selects_a_benign_update(self):
        updates = _cluster_with_outlier()
        result = Krum().aggregate(updates, _context())
        assert result.accepted_client_ids[0] != 99
        assert np.all(np.abs(result.new_params - 1.0) < 0.2)

    def test_krum_reports_scores_for_all_clients(self):
        updates = _cluster_with_outlier()
        result = Krum().aggregate(updates, _context())
        assert set(result.scores) == {u.client_id for u in updates}

    def test_mkrum_excludes_outlier(self):
        updates = _cluster_with_outlier()
        result = MultiKrum().aggregate(updates, _context())
        assert 99 not in result.accepted_client_ids
        assert len(result.accepted_client_ids) == len(updates) - 1

    def test_mkrum_respects_explicit_selection_size(self):
        updates = _cluster_with_outlier()
        result = MultiKrum(num_selected=3).aggregate(updates, _context())
        assert len(result.accepted_client_ids) == 3

    def test_mkrum_aggregate_is_mean_of_selected(self):
        updates = _cluster_with_outlier()
        result = MultiKrum(num_selected=4).aggregate(updates, _context())
        chosen = [u for u in updates if u.client_id in result.accepted_client_ids]
        expected = np.stack([u.parameters for u in chosen]).mean(axis=0)
        np.testing.assert_allclose(result.new_params, expected)

    def test_identical_sybil_updates_can_pass_mkrum(self):
        # Two identical malicious updates close to the benign cluster should
        # not be rejected purely for being identical.
        rng = np.random.default_rng(0)
        updates = [
            ModelUpdate(client_id=i, parameters=1.0 + 0.05 * rng.standard_normal(6), num_samples=5)
            for i in range(6)
        ]
        sybil = 1.0 + 0.05 * rng.standard_normal(6)
        updates += [
            ModelUpdate(client_id=100 + i, parameters=sybil.copy(), num_samples=5, is_malicious=True)
            for i in range(2)
        ]
        result = MultiKrum().aggregate(updates, _context(6, num_malicious=2))
        assert any(cid >= 100 for cid in result.accepted_client_ids)


class TestBulyan:
    def test_excludes_outlier(self):
        updates = _cluster_with_outlier()
        result = Bulyan().aggregate(updates, _context())
        assert 99 not in result.accepted_client_ids
        assert np.all(np.abs(result.new_params - 1.0) < 0.2)

    def test_selection_size_defaults_to_n_minus_2f(self):
        updates = _cluster_with_outlier(num_benign=9)  # 10 updates, f=1
        result = Bulyan().aggregate(updates, _context(num_malicious=1))
        assert len(result.accepted_client_ids) == 8

    def test_explicit_selection_and_trim(self):
        updates = _cluster_with_outlier()
        result = Bulyan(selection_size=5, trim=1).aggregate(updates, _context())
        assert len(result.accepted_client_ids) == 5

    def test_rejects_more_than_mkrum(self):
        updates = _cluster_with_outlier(num_benign=9)
        context = _context(num_malicious=2)
        mkrum_accepted = len(MultiKrum().aggregate(updates, context).accepted_client_ids)
        bulyan_accepted = len(Bulyan().aggregate(updates, context).accepted_client_ids)
        assert bulyan_accepted < mkrum_accepted

    def test_unknown_coordinate_rule_raises(self):
        with pytest.raises(ValueError):
            Bulyan(coordinate_rule="mean-of-means")

    def test_median_closest_rule_follows_the_paper(self):
        """El Mhamdi et al.: keep the θ−2β coordinates *closest to the
        coordinate-wise median* — not the sorted middle slice.  With values
        [0, 1, 5, 5.1, 5.2] and β=1 the median is 5 and the closest three
        are {5, 5.1, 5.2}; the trimmed mean would keep {1, 5, 5.1}."""
        values = [0.0, 1.0, 5.0, 5.1, 5.2]
        updates = [
            ModelUpdate(client_id=i, parameters=np.array([v]), num_samples=1)
            for i, v in enumerate(values)
        ]
        context = _context(1, num_malicious=1)
        paper = Bulyan(selection_size=5, trim=1).aggregate(updates, context)
        np.testing.assert_allclose(paper.new_params, [np.mean([5.0, 5.1, 5.2])])
        trimmed = Bulyan(selection_size=5, trim=1, coordinate_rule="trimmed-mean").aggregate(
            updates, context
        )
        np.testing.assert_allclose(trimmed.new_params, [np.mean([1.0, 5.0, 5.1])])

    def test_zero_trim_is_plain_mean_under_both_rules(self):
        values = [0.0, 1.0, 4.0]
        updates = [
            ModelUpdate(client_id=i, parameters=np.array([v]), num_samples=1)
            for i, v in enumerate(values)
        ]
        context = _context(1, num_malicious=0)
        for rule in ("median-closest", "trimmed-mean"):
            result = Bulyan(selection_size=3, trim=0, coordinate_rule=rule).aggregate(
                updates, context
            )
            np.testing.assert_allclose(result.new_params, [np.mean(values)])

    def test_selection_order_pinned_on_hand_built_example(self):
        """Points on a line at 0, 1, 3, 6, 10 with f=2: the remaining set
        shrinks below f+3 immediately, so every pick must clamp the
        neighbourhood to the *current* n.  Expected order (nearest-single-
        neighbour scoring, first-index tie-break): 0, 1, 2, 3."""
        positions = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        distances = (positions[:, None] - positions[None, :]) ** 2
        assert iterative_krum_selection(distances, 4, 2) == [0, 1, 2, 3]
        # The same order must come out of the full defense.
        updates = [
            ModelUpdate(client_id=10 + i, parameters=np.array([p]), num_samples=1)
            for i, p in enumerate(positions)
        ]
        result = Bulyan(selection_size=4).aggregate(updates, _context(1, num_malicious=2))
        assert result.accepted_client_ids == [10, 11, 12, 13]

    def test_distance_matrix_reuse_matches_per_pick_rescoring(self):
        """Slicing one precomputed matrix must equal recomputing krum_scores
        from the raw updates on every pick (the old O(θ·n²·dim) loop)."""
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((9, 40)).astype(np.float32)
        distances = pairwise_sq_distances(matrix)
        fast = iterative_krum_selection(distances, 6, 2)
        remaining = list(range(9))
        slow = []
        while len(slow) < 6 and remaining:
            scores = krum_scores(matrix[remaining], 2)
            slow.append(remaining.pop(int(np.argmin(scores))))
        assert fast == slow


class TestStatisticalDefenses:
    def test_median_per_coordinate(self):
        updates = [
            ModelUpdate(client_id=0, parameters=np.array([1.0, 10.0]), num_samples=1),
            ModelUpdate(client_id=1, parameters=np.array([2.0, 20.0]), num_samples=1),
            ModelUpdate(client_id=2, parameters=np.array([100.0, -5.0]), num_samples=1),
        ]
        result = Median().aggregate(updates, _context(2))
        np.testing.assert_allclose(result.new_params, [2.0, 10.0])
        assert result.accepted_client_ids is None

    def test_median_resists_large_outlier(self):
        updates = _cluster_with_outlier()
        result = Median().aggregate(updates, _context())
        assert np.all(np.abs(result.new_params - 1.0) < 0.2)

    def test_trimmed_mean_removes_extremes(self):
        updates = [
            ModelUpdate(client_id=i, parameters=np.array([float(v)]), num_samples=1)
            for i, v in enumerate([0.0, 1.0, 2.0, 3.0, 100.0])
        ]
        result = TrimmedMean().aggregate(updates, _context(1, num_malicious=1))
        np.testing.assert_allclose(result.new_params, [2.0])

    def test_trimmed_mean_zero_trim_equals_mean(self):
        updates = [
            ModelUpdate(client_id=i, parameters=np.array([float(i)]), num_samples=1)
            for i in range(4)
        ]
        result = TrimmedMean(trim_ratio=0.0).aggregate(updates, _context(1))
        np.testing.assert_allclose(result.new_params, [1.5])

    def test_trimmed_mean_invalid_ratio(self):
        with pytest.raises(ValueError):
            TrimmedMean(trim_ratio=0.6)

    def test_trimmed_mean_bounded_by_sorted_interior(self):
        updates = _cluster_with_outlier()
        result = TrimmedMean().aggregate(updates, _context())
        matrix = np.stack([u.parameters for u in updates])
        assert np.all(result.new_params <= matrix.max(axis=0))
        assert np.all(result.new_params >= matrix.min(axis=0))
        assert np.all(result.new_params < 10.0)


class TestFoolsGold:
    def test_downweights_identical_sybils(self):
        rng = np.random.default_rng(0)
        context = _context(8)
        benign = [
            ModelUpdate(client_id=i, parameters=rng.standard_normal(8), num_samples=5)
            for i in range(5)
        ]
        sybil_vector = rng.standard_normal(8)
        sybils = [
            ModelUpdate(client_id=100 + i, parameters=sybil_vector.copy(), num_samples=5,
                        is_malicious=True)
            for i in range(3)
        ]
        defense = FoolsGold()
        result = defense.aggregate(benign + sybils, context)
        sybil_weights = [result.scores[100 + i] for i in range(3)]
        benign_weights = [result.scores[i] for i in range(5)]
        assert max(sybil_weights) < max(benign_weights)

    def test_reset_clears_history(self):
        defense = FoolsGold()
        updates = _cluster_with_outlier()
        defense.aggregate(updates, _context())
        assert defense._history
        defense.reset()
        assert not defense._history

    def test_pardoning_matches_reference_double_loop(self):
        """The vectorized rescale must equal the original algorithm's loop:
        cs_ij *= maxcs_i / maxcs_j whenever maxcs_j > maxcs_i."""
        rng = np.random.default_rng(0)
        for _ in range(5):
            vectors = rng.standard_normal((6, 12))
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            cs = (vectors / norms) @ (vectors / norms).T
            reference = cs.copy()
            np.fill_diagonal(reference, 0.0)
            maxcs = reference.max(axis=1)
            for i in range(6):
                for j in range(6):
                    if maxcs[j] > maxcs[i]:
                        reference[i, j] = reference[i, j] * maxcs[i] / maxcs[j]
            np.testing.assert_allclose(pardoned_similarities(cs), reference, rtol=1e-12)

    def test_pardoning_restores_benign_client_aligned_with_sybils(self):
        """An honest client that merely points the same way as a Sybil
        cluster is pardoned: its similarity to the Sybils is rescaled by
        maxcs_i / maxcs_j < 1, so its weight matches an orthogonal benign
        client instead of being crushed."""
        dim = 8
        sybil_direction = np.zeros(dim)
        sybil_direction[0] = 1.0
        aligned_benign = np.zeros(dim)
        aligned_benign[0] = 0.5
        aligned_benign[1] = np.sqrt(1 - 0.25)  # cosine 0.5 with the Sybils
        orthogonal_benign = np.zeros(dim)
        orthogonal_benign[2] = 1.0
        updates = [
            ModelUpdate(client_id=0, parameters=aligned_benign, num_samples=1),
            ModelUpdate(client_id=1, parameters=orthogonal_benign, num_samples=1),
            ModelUpdate(client_id=100, parameters=sybil_direction.copy(), num_samples=1,
                        is_malicious=True),
            ModelUpdate(client_id=101, parameters=sybil_direction.copy(), num_samples=1,
                        is_malicious=True),
        ]
        result = FoolsGold().aggregate(updates, _context(dim))
        # Pardoned similarity of the aligned client drops to 0.5 * 0.5 / 1.0
        # = 0.25 -> weight 0.75 -> logit(0.75) + 0.5 > 1 -> full weight,
        # exactly like the orthogonal client; the Sybils stay at zero.
        assert result.scores[0] == pytest.approx(result.scores[1])
        assert result.scores[100] == pytest.approx(0.0, abs=1e-6)
        assert result.scores[101] == pytest.approx(0.0, abs=1e-6)
        assert result.scores[0] > 10 * max(result.scores[100], result.scores[101])

    def test_pardoning_diagonal_untouched_by_zero_max(self):
        # A lone pair of anti-correlated clients: every maxcs floors at 0,
        # so no pardoning applies and nothing divides by zero.
        cs = np.array([[1.0, -0.5], [-0.5, 1.0]])
        pardoned = pardoned_similarities(cs)
        np.testing.assert_array_equal(pardoned, np.array([[0.0, -0.5], [-0.5, 0.0]]))


class TestDefenseBackendParity:
    """Serial and process backends must agree bitwise."""

    def _updates(self, n=8, dim=256, seed=3):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(dim).astype(np.float32)
        return [
            ModelUpdate(
                client_id=i,
                parameters=base + 0.05 * rng.standard_normal(dim).astype(np.float32),
                num_samples=5,
            )
            for i in range(n)
        ]

    def _context_with(self, dispatch, dim=256):
        return DefenseContext(
            round_number=0,
            global_params=np.zeros(dim, dtype=np.float32),
            expected_num_malicious=2,
            rng=np.random.default_rng(0),
            dispatch=dispatch,
        )

    @pytest.mark.parametrize(
        "defense_factory",
        [Krum, MultiKrum, Bulyan, FoolsGold],
        ids=["krum", "mkrum", "bulyan", "foolsgold"],
    )
    def test_backends_bit_identical(self, defense_factory):
        updates = self._updates()
        serial = defense_factory().aggregate(updates, self._context_with(None))
        with DispatchPolicy("process", workers=2) as policy:
            pooled = defense_factory().aggregate(updates, self._context_with(policy))
            # The distance plane runs inline: nothing reaches the pool.
            assert policy.counter_snapshot()["fanout_calls"] == 0
            assert policy._pool is None
        np.testing.assert_array_equal(serial.new_params, pooled.new_params)
        assert serial.accepted_client_ids == pooled.accepted_client_ids
        if serial.scores is not None:
            assert serial.scores == pooled.scores


class TestRegistry:
    def test_all_registered_names_build(self):
        for name in available_defenses():
            assert build_defense(name) is not None

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_defense("does-not-exist")

    def test_kwargs_forwarded(self):
        defense = build_defense("mkrum", num_selected=4)
        assert defense.num_selected == 4

    def test_selects_updates_flags(self):
        assert build_defense("mkrum").selects_updates
        assert build_defense("bulyan").selects_updates
        assert build_defense("refd").selects_updates
        assert not build_defense("median").selects_updates
        assert not build_defense("trmean").selects_updates
